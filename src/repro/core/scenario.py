"""Scenario facade: one place to hold the expensive shared stages.

A :class:`Scenario` binds parameters to a network model (analytic,
explicit-rate or mobility-measured — measured once, reused across every
sweep point) and exposes the evaluation, sweep and optimisation APIs
with that caching behaviour. The examples and the experiment harness
build everything through this class.
"""

from __future__ import annotations

from typing import Optional, Sequence


from ..manet.network import NetworkModel
from ..params import GCSParameters
from .metrics import evaluate, resolve_network
from .optimizer import OptimizationResult, TradeoffPoint, optimize_tids, tradeoff_curve
from .results import GCSResult

__all__ = ["Scenario"]


class Scenario:
    """A GCS deployment scenario with a fixed network environment."""

    def __init__(
        self,
        params: GCSParameters,
        *,
        network: Optional[NetworkModel] = None,
        use_mobility: bool = False,
        mobility_duration_s: float = 1800.0,
        seed: Optional[int] = None,
    ) -> None:
        self.params = params
        self.seed = seed
        self.network = resolve_network(
            params,
            network,
            use_mobility=use_mobility,
            mobility_duration_s=mobility_duration_s,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        *,
        method: str = "fast",
        include_breakdown: bool = False,
        include_variance: bool = False,
        **overrides,
    ) -> GCSResult:
        """Evaluate the scenario, optionally with parameter overrides
        (same keywords as :meth:`GCSParameters.replacing`)."""
        params = self.params.replacing(**overrides) if overrides else self.params
        return evaluate(
            params,
            self.network,
            method=method,
            include_breakdown=include_breakdown,
            include_variance=include_variance,
        )

    def sweep_tids(
        self, tids_grid_s: Sequence[float], *, method: str = "fast", **overrides
    ) -> list[TradeoffPoint]:
        """MTTSF/Ĉtotal across a ``TIDS`` grid (Figures 2–5 backbone)."""
        params = self.params.replacing(**overrides) if overrides else self.params
        return tradeoff_curve(
            params, tids_grid_s, network=self.network, method=method
        )

    def optimize(
        self,
        tids_grid_s: Sequence[float],
        *,
        objective: str = "max-mttsf",
        cost_ceiling_hop_bits_s: Optional[float] = None,
        method: str = "fast",
        **overrides,
    ) -> OptimizationResult:
        """Optimal-``TIDS`` search (see :func:`repro.core.optimizer.optimize_tids`)."""
        params = self.params.replacing(**overrides) if overrides else self.params
        return optimize_tids(
            params,
            tids_grid_s,
            objective=objective,
            cost_ceiling_hop_bits_s=cost_ceiling_hop_bits_s,
            network=self.network,
            method=method,
        )

    def with_params(self, **overrides) -> "Scenario":
        """A sibling scenario sharing this network environment."""
        clone = object.__new__(Scenario)
        clone.params = self.params.replacing(**overrides)
        clone.seed = self.seed
        clone.network = self.network
        return clone

    def describe(self) -> str:
        return f"Scenario({self.params.describe()}; {self.network.describe()})"
