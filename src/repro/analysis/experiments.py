"""Experiment registry: every paper figure plus extension ablations.

Each experiment is a declarative :class:`Experiment` whose runner maps
an :class:`ExperimentConfig` to data series and human-readable notes.
``quick`` configs shrink the group to ``N = 40`` and/or reduce grids so
the whole registry runs in CI time; ``full`` configs reproduce the
paper's ``N = 100`` operating point. The *shapes* (interior optima,
orderings, crossovers) hold at both scales — that is asserted by the
benchmark suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .. import constants as C
from ..core.optimizer import TradeoffPoint
from ..core.results import GCSResult
from ..core.scenario import Scenario
from ..engine.batch import BatchRunner, EvalRequest, make_runner, run_tids_sweep
from ..errors import ExperimentError
from ..params import GCSParameters
from ..sim.runner import run_replications
from .figures import DataSeries
from .tables import render_series

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Experiment",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
    "run",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``runner`` is the :class:`repro.engine.batch.BatchRunner` every
    model evaluation goes through, with its cache and execution
    backend (the CLI's ``--jobs`` / ``--cache-dir`` flags build one).
    The default is ``make_runner("vector")``: the in-process batched
    solver with a memory cache. Every backend writes the same bytes,
    so the series do not depend on the runner.
    """

    quick: bool = True
    seed: int = 0
    runner: BatchRunner = field(
        default_factory=lambda: make_runner("vector"), compare=False
    )

    @property
    def num_nodes(self) -> int:
        return 40 if self.quick else C.PAPER_NUM_NODES

    @property
    def tids_grid(self) -> tuple[float, ...]:
        return C.PAPER_TIDS_GRID_S

    @property
    def tids_grid_cost(self) -> tuple[float, ...]:
        return C.PAPER_TIDS_GRID_COST_S

    @property
    def m_values(self) -> tuple[int, ...]:
        return C.PAPER_M_VALUES


@dataclass(frozen=True)
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    series: tuple[DataSeries, ...]
    notes: tuple[str, ...]
    elapsed_seconds: float
    config: ExperimentConfig

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} "
                 f"({'quick' if self.config.quick else 'full'}, "
                 f"{self.elapsed_seconds:.1f}s) =="]
        for s in self.series:
            parts.append(render_series(s))
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        return "\n\n".join(parts)


Runner = Callable[[ExperimentConfig], tuple[list[DataSeries], list[str]]]


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable experiment."""

    id: str
    title: str
    paper_artifact: str
    description: str
    runner: Runner

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        config = config or ExperimentConfig()
        start = time.perf_counter()
        series, notes = self.runner(config)
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            series=tuple(series),
            notes=tuple(notes),
            elapsed_seconds=elapsed,
            config=config,
        )


# ---------------------------------------------------------------------------
# Figure experiments
# ---------------------------------------------------------------------------

def _base_scenario(config: ExperimentConfig, **overrides) -> Scenario:
    params = GCSParameters.paper_defaults(num_nodes=config.num_nodes, **overrides)
    return Scenario(params)


def _sweep_tids(
    scenario: Scenario,
    grid: Sequence[float],
    config: ExperimentConfig,
    **overrides,
) -> list[TradeoffPoint]:
    """One ``TIDS`` sweep as one batch through the configured runner.

    Every point shares the scenario's network environment; the runner
    deduplicates repeated scenario points across figures and can fan
    out over processes.
    """
    return run_tids_sweep(
        config.runner,
        scenario.params,
        grid,
        network=scenario.network,
        overrides=overrides,
    )


def _evaluate_requests(
    config: ExperimentConfig, requests: Sequence[EvalRequest]
) -> list[GCSResult]:
    """Evaluate arbitrary requests as one batch through the runner.

    The batch is deduplicated, cached and possibly parallel, and it
    aborts on any point failure.
    """
    batch = config.runner.run(requests)
    batch.report.raise_on_error()
    results = list(batch.results)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def _fig2(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    scenario = _base_scenario(config)
    grid = config.tids_grid
    series: dict[str, list[float]] = {}
    notes: list[str] = []
    for m in config.m_values:
        points = _sweep_tids(scenario, grid, config, num_voters=m)
        series[f"m={m}"] = [p.mttsf_s for p in points]
        best = max(points, key=lambda p: p.mttsf_s)
        notes.append(
            f"m={m}: optimal TIDS={best.tids_s:g}s, MTTSF={best.mttsf_s:.3e}s "
            "(paper: optimal TIDS=480/60/15/5 for m=3/5/7/9)"
        )
    data = DataSeries.build("fig2_mttsf_vs_tids", "TIDS_s", grid, "MTTSF_s", series)
    return [data], notes


def _fig3(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    scenario = _base_scenario(config)
    grid = config.tids_grid_cost
    series: dict[str, list[float]] = {}
    notes: list[str] = []
    for m in config.m_values:
        points = _sweep_tids(scenario, grid, config, num_voters=m)
        series[f"m={m}"] = [p.ctotal_hop_bits_s for p in points]
        best = min(points, key=lambda p: p.ctotal_hop_bits_s)
        notes.append(
            f"m={m}: cost-optimal TIDS={best.tids_s:g}s, "
            f"Ctotal={best.ctotal_hop_bits_s:.3e} hop-bits/s"
        )
    notes.append("paper: larger m gives uniformly higher Ctotal")
    data = DataSeries.build(
        "fig3_ctotal_vs_tids", "TIDS_s", grid, "Ctotal_hop_bits_s", series
    )
    return [data], notes


def _fig4(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    scenario = _base_scenario(config)
    grid = config.tids_grid
    series: dict[str, list[float]] = {}
    notes: list[str] = []
    for fn in ("logarithmic", "linear", "polynomial"):
        points = _sweep_tids(scenario, grid, config, detection_function=fn)
        series[fn] = [p.mttsf_s for p in points]
        best = max(points, key=lambda p: p.mttsf_s)
        notes.append(f"{fn}: optimal TIDS={best.tids_s:g}s, MTTSF={best.mttsf_s:.3e}s")
    notes.append(
        "paper: polynomial detection wins at large TIDS, logarithmic at "
        "small TIDS (crossovers); linear best near its optimum"
    )
    data = DataSeries.build(
        "fig4_mttsf_vs_detection_fn", "TIDS_s", grid, "MTTSF_s", series
    )
    return [data], notes


def _fig5(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    scenario = _base_scenario(config)
    grid = config.tids_grid_cost
    series: dict[str, list[float]] = {}
    notes: list[str] = []
    optima: dict[str, float] = {}
    for fn in ("logarithmic", "linear", "polynomial"):
        points = _sweep_tids(scenario, grid, config, detection_function=fn)
        series[fn] = [p.ctotal_hop_bits_s for p in points]
        best = min(points, key=lambda p: p.ctotal_hop_bits_s)
        optima[fn] = best.tids_s
        notes.append(
            f"{fn}: cost-optimal TIDS={best.tids_s:g}s, "
            f"Ctotal={best.ctotal_hop_bits_s:.3e}"
        )
    notes.append(
        f"cost-optimal TIDS ordering: log({optima['logarithmic']:g}) <= "
        f"linear({optima['linear']:g}) <= poly({optima['polynomial']:g}) "
        "(paper: shorter optimal TIDS for less aggressive detection)"
    )
    data = DataSeries.build(
        "fig5_ctotal_vs_detection_fn", "TIDS_s", grid, "Ctotal_hop_bits_s", series
    )
    return [data], notes


# ---------------------------------------------------------------------------
# Ablations & validation (extensions beyond the paper's figures)
# ---------------------------------------------------------------------------

def _ablation_attacker_matrix(
    config: ExperimentConfig,
) -> tuple[list[DataSeries], list[str]]:
    """3x3 attacker-function x detection-function MTTSF matrix.

    Substantiates the paper's closing claim that the detection function
    should be adapted to the attacker function observed at runtime.
    """
    scenario = _base_scenario(config)
    grid = config.tids_grid
    forms = ("logarithmic", "linear", "polynomial")
    series: dict[str, list[float]] = {}
    notes: list[str] = []
    for attacker in forms:
        best_by_fn: dict[str, float] = {}
        for detection in forms:
            points = _sweep_tids(
                scenario, grid, config,
                attacker_function=attacker, detection_function=detection,
            )
            series[f"A={attacker[:4]}/D={detection[:4]}"] = [
                p.mttsf_s for p in points
            ]
            best_by_fn[detection] = max(p.mttsf_s for p in points)
        winner = max(best_by_fn, key=best_by_fn.get)
        notes.append(
            f"attacker={attacker}: best detection={winner} "
            f"(MTTSF {best_by_fn[winner]:.3e}s; "
            + ", ".join(f"{k}={v:.3e}" for k, v in best_by_fn.items())
            + ")"
        )
    data = DataSeries.build(
        "ablation_attacker_matrix", "TIDS_s", grid, "MTTSF_s", series
    )
    return [data], notes


def _ablation_hostids(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    """Host-IDS quality sweep (p1 = p2)."""
    scenario = _base_scenario(config)
    levels = (0.001, 0.005, 0.01, 0.02, 0.05)
    results = _evaluate_requests(
        config,
        [
            EvalRequest(
                params=scenario.params.replacing(
                    host_false_negative=p_err, host_false_positive=p_err
                ),
                network=scenario.network,
            )
            for p_err in levels
        ],
    )
    mttsf = [r.mttsf_s for r in results]
    ctotal = [r.ctotal_hop_bits_s for r in results]
    notes = [
        f"p1=p2={levels[0]:g} -> MTTSF {mttsf[0]:.3e}s; "
        f"p1=p2={levels[-1]:g} -> MTTSF {mttsf[-1]:.3e}s",
        "better host IDS extends survival monotonically at fixed TIDS",
    ]
    return (
        [
            DataSeries.build(
                "ablation_hostids_mttsf", "p1=p2", levels, "MTTSF_s", {"mttsf": mttsf}
            ),
            DataSeries.build(
                "ablation_hostids_ctotal",
                "p1=p2",
                levels,
                "Ctotal_hop_bits_s",
                {"ctotal": ctotal},
            ),
        ],
        notes,
    )


def _ablation_ng_coupling(
    config: ExperimentConfig,
) -> tuple[list[DataSeries], list[str]]:
    """Decoupled vs exactly-coupled group dynamics (small N)."""
    from ..params import GroupDynamicsParameters

    partition_rates = (1e-6, 1e-5, 1e-4, 2.78e-4, 1e-3)
    n = 12 if config.quick else 20
    grid_params = [
        GCSParameters.paper_defaults(
            num_nodes=n,
            groups=GroupDynamicsParameters(
                partition_rate_hz=nu_p, merge_rate_hz=1.11e-3, max_groups=4
            ),
        )
        for nu_p in partition_rates
    ]
    # Both solver variants of every grid point go through the engine as
    # one batch (cached + parallelisable).
    results = _evaluate_requests(
        config,
        [EvalRequest(params=p, method="fast") for p in grid_params]
        + [EvalRequest(params=p, method="spn-coupled") for p in grid_params],
    )
    decoupled = [r.mttsf_s for r in results[: len(grid_params)]]
    coupled = [r.mttsf_s for r in results[len(grid_params) :]]
    gaps = [abs(a - b) / b for a, b in zip(decoupled, coupled)]
    notes = [
        f"partition_rate={r:.1e}/s: decoupling error {g:.1%}"
        for r, g in zip(partition_rates, gaps)
    ]
    notes.append(
        "decoupling is accurate when partitions are rare (paper's dense "
        "default); frequent partitioning of tiny groups amplifies "
        "collusion, which only the coupled model captures"
    )
    data = DataSeries.build(
        "ablation_ng_coupling",
        "partition_rate_hz",
        partition_rates,
        "MTTSF_s",
        {"decoupled": decoupled, "coupled": coupled},
    )
    return [data], notes


def _valsim_replications(task: tuple[GCSParameters, int, int]) -> tuple[float, float, float]:
    """One grid point's replication batch (module level: pools pickle it)."""
    params, replications, seed = task
    summary = run_replications(
        params, replications=replications, mode="rates", seed=seed
    )
    lo, hi = summary.ttsf.interval
    return summary.ttsf.mean, lo, hi


def _validation_sim(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    """Monte Carlo vs analytic MTTSF across TIDS."""
    n = 12 if config.quick else 30
    reps = 150 if config.quick else 400
    grid = (15.0, 60.0, 240.0, 960.0)
    grid_params = [
        GCSParameters.small_test(num_nodes=n, detection_interval_s=tids)
        for tids in grid
    ]

    # Analytic side: one engine batch.
    analytic = [
        r.mttsf_s
        for r in _evaluate_requests(
            config, [EvalRequest(params=p) for p in grid_params]
        )
    ]

    # Simulation side: the replication batches are embarrassingly
    # parallel across grid points, so fan them out over the runner's
    # execution backend (they are stochastic, hence never cached).
    outcomes = config.runner.backend.run(
        _valsim_replications, [(p, reps, config.seed) for p in grid_params]
    )
    sim_mean: list[float] = []
    sim_lo: list[float] = []
    sim_hi: list[float] = []
    inside = 0
    for value, outcome in zip(analytic, outcomes):
        if not outcome.ok:
            raise ExperimentError(
                f"replication batch failed: {outcome.error_type}: {outcome.error}"
            )
        mean, lo, hi = outcome.value
        sim_mean.append(mean)
        sim_lo.append(lo)
        sim_hi.append(hi)
        if lo <= value <= hi:
            inside += 1
    notes = [
        f"analytic MTTSF inside the 95% CI at {inside}/{len(grid)} grid points "
        f"({reps} replications each)"
    ]
    data = DataSeries.build(
        "validation_sim_vs_model",
        "TIDS_s",
        grid,
        "MTTSF_s",
        {
            "analytic": analytic,
            "sim_mean": sim_mean,
            "sim_ci_lo": sim_lo,
            "sim_ci_hi": sim_hi,
        },
    )
    return [data], notes


def _host_vs_voting(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    """Host-based IDS baseline vs voting-based IDS (paper Section 2.2).

    The paper's two protocol types: *host-based* IDS — each node decides
    alone (modelled as a single vote-participant, ``m = 1``: the verdict
    is one node's host-IDS output, and a compromised juror colludes) —
    versus the *voting-based* protocol with ``m = 5``. The voting layer
    is the paper's contribution; this experiment quantifies what it buys
    and what it costs.
    """
    scenario = _base_scenario(config)
    grid = config.tids_grid
    mttsf: dict[str, list[float]] = {}
    ctotal: dict[str, list[float]] = {}
    peaks: dict[str, float] = {}
    for label, m in (("host-based (m=1)", 1), ("voting (m=5)", 5)):
        points = _sweep_tids(scenario, grid, config, num_voters=m)
        mttsf[label] = [p.mttsf_s for p in points]
        ctotal[label] = [p.ctotal_hop_bits_s for p in points]
        peaks[label] = max(mttsf[label])
    gain = peaks["voting (m=5)"] / peaks["host-based (m=1)"]
    notes = [
        f"peak MTTSF: host-based {peaks['host-based (m=1)']:.3e}s vs "
        f"voting {peaks['voting (m=5)']:.3e}s — the voting layer buys "
        f"{gain:.1f}x survivability",
        "voting costs more per detection round (m ballots instead of 1) "
        "but suppresses false evictions by requiring a majority",
    ]
    return (
        [
            DataSeries.build(
                "host_vs_voting_mttsf", "TIDS_s", grid, "MTTSF_s", mttsf
            ),
            DataSeries.build(
                "host_vs_voting_ctotal", "TIDS_s", grid, "Ctotal_hop_bits_s", ctotal
            ),
        ],
        notes,
    )


def _ablation_workload(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    """Attacker-tempo (λc) × traffic (λq) sensitivity of the optimum.

    Extension: the paper fixes λc = 1/12h and λq = 1/min; this sweep
    shows how the optimal detection interval tracks the threat tempo
    (faster compromise ⇒ shorter optimal TIDS) and the leak channel
    (more data requests ⇒ more C1 exposure per undetected minute).
    """
    scenario = _base_scenario(config)
    grid = config.tids_grid
    hour = 3600.0

    lambda_c_values = (1.0 / (48 * hour), 1.0 / (12 * hour), 1.0 / (3 * hour))
    mttsf_by_lc: dict[str, list[float]] = {}
    optimal_tids: list[float] = []
    for lam_c in lambda_c_values:
        points = _sweep_tids(scenario, grid, config, base_compromise_rate_hz=lam_c)
        label = f"lc=1/{1/(lam_c*hour):.0f}h"
        mttsf_by_lc[label] = [p.mttsf_s for p in points]
        optimal_tids.append(max(points, key=lambda p: p.mttsf_s).tids_s)

    lambda_q_values = (1.0 / 300.0, 1.0 / 60.0, 1.0 / 15.0)
    mttsf_by_lq: dict[str, list[float]] = {}
    for lam_q in lambda_q_values:
        points = _sweep_tids(scenario, grid, config, data_rate_hz=lam_q)
        label = f"lq=1/{1/lam_q:.0f}s"
        mttsf_by_lq[label] = [p.mttsf_s for p in points]

    notes = [
        "optimal TIDS vs attacker tempo (λc = 1/48h, 1/12h, 1/3h): "
        f"{optimal_tids[0]:g}s, {optimal_tids[1]:g}s, {optimal_tids[2]:g}s "
        "(faster compromise favours more frequent detection)",
        "higher data-request rate λq inflates the C1 leak channel and "
        "suppresses MTTSF at large TIDS",
    ]
    return (
        [
            DataSeries.build(
                "ablation_workload_lambda_c", "TIDS_s", grid, "MTTSF_s", mttsf_by_lc
            ),
            DataSeries.build(
                "ablation_workload_lambda_q", "TIDS_s", grid, "MTTSF_s", mttsf_by_lq
            ),
        ],
        notes,
    )


def _solver_scaling(config: ExperimentConfig) -> tuple[list[DataSeries], list[str]]:
    """Wall time and state count vs group size N."""
    from ..core.metrics import evaluate

    sizes = (20, 40, 60) if config.quick else (20, 40, 60, 80, 100)
    build: list[float] = []
    solve: list[float] = []
    states: list[float] = []
    for n in sizes:
        result = evaluate(GCSParameters.paper_defaults(num_nodes=n))
        build.append(result.build_seconds)
        solve.append(result.solve_seconds)
        states.append(float(result.num_states))
    notes = [
        f"N={n}: {int(s)} states, build {b:.2f}s, solve {v:.2f}s"
        for n, s, b, v in zip(sizes, states, build, solve)
    ]
    data = DataSeries.build(
        "solver_scaling",
        "num_nodes",
        sizes,
        "seconds",
        {"build_s": build, "solve_s": solve, "states": states},
    )
    return [data], notes


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment(
            id="fig2",
            title="MTTSF vs TIDS for m in {3,5,7,9} (linear attacker/detection)",
            paper_artifact="Figure 2",
            description=(
                "Interior optimum per curve; larger m raises MTTSF and "
                "shortens the optimal TIDS (paper: 480/60/15/5 s)."
            ),
            runner=_fig2,
        ),
        Experiment(
            id="fig3",
            title="Ctotal vs TIDS for m in {3,5,7,9}",
            paper_artifact="Figure 3",
            description="Interior cost minimum; cost increases with m.",
            runner=_fig3,
        ),
        Experiment(
            id="fig4",
            title="MTTSF vs TIDS for log/linear/poly detection (linear attacker, m=5)",
            paper_artifact="Figure 4",
            description=(
                "Aggressive detection wins at large TIDS, conservative at "
                "small TIDS; crossovers as in the paper."
            ),
            runner=_fig4,
        ),
        Experiment(
            id="fig5",
            title="Ctotal vs TIDS for log/linear/poly detection",
            paper_artifact="Figure 5",
            description=(
                "Cost-optimal TIDS grows with detection aggressiveness."
            ),
            runner=_fig5,
        ),
        Experiment(
            id="abl-attacker",
            title="Attacker x detection function MTTSF matrix",
            paper_artifact="Section 5 adaptive-IDS claim",
            description="Which detection function counters which attacker.",
            runner=_ablation_attacker_matrix,
        ),
        Experiment(
            id="abl-hostids",
            title="Host IDS quality sweep (p1 = p2)",
            paper_artifact="extension",
            description="Sensitivity of MTTSF/Ctotal to per-node IDS quality.",
            runner=_ablation_hostids,
        ),
        Experiment(
            id="baseline-host",
            title="Host-based IDS baseline vs voting-based IDS",
            paper_artifact="Section 2.2 protocol dichotomy",
            description="What the majority-voting layer buys over per-node verdicts.",
            runner=_host_vs_voting,
        ),
        Experiment(
            id="abl-workload",
            title="Attacker tempo (λc) and traffic (λq) sensitivity",
            paper_artifact="extension",
            description="How the optimal TIDS tracks threat tempo and workload.",
            runner=_ablation_workload,
        ),
        Experiment(
            id="abl-coupling",
            title="Decoupled vs coupled group dynamics",
            paper_artifact="DESIGN.md §4.4 substitution check",
            description="Quantifies the NG-decoupling approximation error.",
            runner=_ablation_ng_coupling,
        ),
        Experiment(
            id="val-sim",
            title="Monte Carlo validation of the analytic model",
            paper_artifact="methodology check",
            description="Simulation CIs vs analytic MTTSF across TIDS.",
            runner=_validation_sim,
        ),
        Experiment(
            id="scale",
            title="Solver scaling vs group size",
            paper_artifact="engineering",
            description="State count and wall time growth with N.",
            runner=_solver_scaling,
        ),
    )
}


def list_experiments() -> list[Experiment]:
    """All registered experiments, figure experiments first."""
    return list(EXPERIMENTS.values())


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run(
    experiment_id: str, *, quick: bool = True, seed: int = 0
) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id).run(ExperimentConfig(quick=quick, seed=seed))
