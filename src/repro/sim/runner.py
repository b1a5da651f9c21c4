"""Replication management and analytic-model comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from ..core.metrics import evaluate, resolve_network
from ..core.results import GCSResult
from ..errors import ParameterError
from ..manet.network import NetworkModel
from ..params import GCSParameters
from ..rng import spawn_children
from ..validation import require_positive_int
from .collectors import MissionRecord, ReplicationStats
from .gcs_sim import GCSSimulator

__all__ = ["SimulationSummary", "run_replications", "compare_with_model"]


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated replications of one scenario."""

    params: GCSParameters
    mode: str
    records: tuple[MissionRecord, ...]
    ttsf: ReplicationStats
    cost_rate: ReplicationStats

    @property
    def num_replications(self) -> int:
        return len(self.records)

    @property
    def failure_mode_fractions(self) -> dict[str, float]:
        n = len(self.records)
        out: dict[str, float] = {}
        for record in self.records:
            out[record.failure_mode] = out.get(record.failure_mode, 0.0) + 1.0 / n
        return out

    def describe(self) -> str:
        modes = ", ".join(
            f"{k}={v:.2f}" for k, v in sorted(self.failure_mode_fractions.items())
        )
        return (
            f"sim[{self.mode}] x{self.num_replications}: "
            f"TTSF {self.ttsf.describe()}; "
            f"cost {self.cost_rate.describe()} hop-bits/s; modes: {modes}"
        )


def run_replications(
    params: GCSParameters,
    *,
    replications: int = 30,
    mode: str = "rates",
    network: Optional[NetworkModel] = None,
    seed: Optional[int] = 0,
    max_time_s: float = 1e10,
) -> SimulationSummary:
    """Run independent missions and aggregate their statistics."""
    require_positive_int("replications", replications)
    net = resolve_network(params, network)
    sim = GCSSimulator(params, net, mode=mode, max_time_s=max_time_s)
    rngs = spawn_children(seed, replications)
    records = tuple(sim.run_mission(rng) for rng in rngs)
    censored = sum(1 for r in records if r.failure_mode == "censored")
    if censored == len(records):
        raise ParameterError(
            "every replication was censored; raise max_time_s"
        )
    return SimulationSummary(
        params=params,
        mode=mode,
        records=records,
        ttsf=ReplicationStats.from_samples([r.ttsf_s for r in records]),
        cost_rate=ReplicationStats.from_samples([r.mean_cost_rate for r in records]),
    )


@dataclass(frozen=True)
class ModelComparison:
    """Simulation vs analytic-model agreement report."""

    simulation: SimulationSummary
    analytic: GCSResult

    @property
    def mttsf_within_ci(self) -> bool:
        return self.simulation.ttsf.contains(self.analytic.mttsf_s)

    @property
    def mttsf_relative_error(self) -> float:
        return abs(self.simulation.ttsf.mean - self.analytic.mttsf_s) / self.analytic.mttsf_s

    @property
    def cost_relative_error(self) -> float:
        return (
            abs(self.simulation.cost_rate.mean - self.analytic.ctotal_hop_bits_s)
            / self.analytic.ctotal_hop_bits_s
        )

    def describe(self) -> str:
        return (
            f"analytic MTTSF={self.analytic.mttsf_s:.4g}s vs "
            f"sim {self.simulation.ttsf.describe()} "
            f"(rel err {self.mttsf_relative_error:.2%}, "
            f"{'inside' if self.mttsf_within_ci else 'OUTSIDE'} CI); "
            f"Ctotal rel err {self.cost_relative_error:.2%}"
        )


def compare_with_model(
    params: GCSParameters,
    *,
    replications: int = 30,
    mode: str = "rates",
    network: Optional[NetworkModel] = None,
    seed: Optional[int] = 0,
) -> ModelComparison:
    """Cross-validate the analytic pipeline against Monte Carlo."""
    net = resolve_network(params, network)
    summary = run_replications(
        params, replications=replications, mode=mode, network=net, seed=seed
    )
    analytic = evaluate(params, net)
    return ModelComparison(simulation=summary, analytic=analytic)
