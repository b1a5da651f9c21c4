"""The ``evaluate()`` pipeline: parameters → MTTSF + Ĉtotal.

This is the reproduction's main entry point. It assembles the scenario
(network model, ``NG`` birth–death distribution, rate bundle, cost
model), builds the security chain (vectorised lattice by default, the
literal Figure 1 SPN on request), and runs the absorbing analysis:

* **MTTSF** = mean time to absorption from the all-trusted marking;
* **Ĉtotal** = expected accumulated communication cost ÷ MTTSF;
* failure-mode split across C1 / C2 / depletion.

:func:`evaluate` solves one scenario; :func:`evaluate_batch` solves a
whole *sweep* at once. The paper's artifacts are sweeps whose grid
points share the lattice topology and differ only in rates, so the
batch path reuses one cached :class:`~repro.core.fastpath.LatticeStructure`
per group size and runs a single multi-point level-scheduled backward
sweep (:func:`repro.ctmc.acyclic.solve_dag_batch`) over stacked
``(P, nnz)`` rate arrays — bit-identical per-point results, one shared
pass instead of ``P`` rebuilds.

:func:`evaluate_survivability` / :func:`evaluate_survivability_batch`
are the *transient* counterparts: instead of steady-state absorption
quantities they compute the time-bounded survivability curve
``S(t) = P(no security failure by t)`` over a mission-time grid, per
failure class, with expected cost rates and trapezoidal time-bounded
costs — batched by the same structure-sharing recipe
(:func:`repro.ctmc.transient.transient_distribution_batch`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..costs.aggregate import GCSCostModel
from ..costs.components import COMPONENT_NAMES
from ..costs.sizes import MessageSizes
from ..ctmc.absorbing import analyze_absorbing
from ..ctmc.acyclic import solve_dag_batch
from ..ctmc.birth_death import BirthDeathProcess
from ..ctmc.transient import (
    csr_row_sums,
    transient_distribution,
    transient_distribution_batch,
)
from ..errors import ParameterError
from ..manet.network import NetworkModel
from ..obs import span
from ..params import GCSParameters
from ..spn.analysis import analyze_spn
from ..validation import require_sorted_unique
from .failure import FailureClass
from .fastpath import (
    build_lattice_chain,
    fill_transition_rates,
    lattice_state_costs,
    lattice_structure,
)
from .model import build_gcs_spn
from .rates import GCSRates
from .results import GCSResult, SurvivabilityResult

__all__ = [
    "GCSEvaluation",
    "evaluate",
    "evaluate_batch",
    "evaluate_batch_outcomes",
    "evaluate_survivability",
    "evaluate_survivability_batch",
    "evaluate_survivability_batch_outcomes",
    "resolve_network",
]

#: One batch scenario: bare parameters, or ``(parameters, network)``
#: where ``network=None`` resolves from the parameters (exactly like
#: :func:`evaluate`'s two leading arguments).
BatchScenario = Union[
    GCSParameters, tuple[GCSParameters, Optional[NetworkModel]]
]

#: Soft cap on the batched solver's working set; grid points beyond it
#: are processed in chunks (the structure stays shared across chunks).
DEFAULT_BATCH_BYTES = 512 * 1024 * 1024


def resolve_network(
    params: GCSParameters,
    network: Optional[NetworkModel] = None,
    *,
    use_mobility: bool = False,
    mobility_duration_s: float = 1800.0,
    seed: Optional[int] = None,
) -> NetworkModel:
    """Build the network model a scenario should use.

    Priority: an explicitly supplied ``network``; else explicit
    partition/merge rates from ``params.groups`` grafted onto the
    analytic model; else a mobility-measured model when
    ``use_mobility``; else the closed-form analytic model.
    """
    if network is not None:
        return network
    if params.groups.has_explicit_rates:
        base = NetworkModel.analytic(params.network)
        return NetworkModel(
            params=params.network,
            avg_hops=base.avg_hops,
            partition_rate_hz=params.groups.partition_rate_hz,
            merge_rate_hz=params.groups.merge_rate_hz,
            measured=False,
        )
    if use_mobility:
        return NetworkModel.from_mobility(
            params.network,
            duration_s=mobility_duration_s,
            rng=np.random.default_rng(seed),
        )
    return NetworkModel.analytic(params.network)


@dataclass
class GCSEvaluation:
    """A reusable evaluation engine for one (params, network) scenario.

    Sweeps that vary only the detection configuration should construct a
    fresh engine per point (rates and cost cache are configuration-
    specific) but *reuse the network model* — see
    :class:`repro.core.scenario.Scenario`, which manages exactly that.
    """

    params: GCSParameters
    network: NetworkModel

    def __post_init__(self) -> None:
        bd = BirthDeathProcess.for_group_count(
            self.network.partition_rate_hz,
            self.network.merge_rate_hz,
            self.params.groups.max_groups,
        )
        self.ng_distribution = bd.level_distribution()
        self.expected_groups = bd.mean_level()

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        method: str = "fast",
        include_breakdown: bool = False,
        include_variance: bool = False,
        sizes: Optional[MessageSizes] = None,
        max_states: int = 2_000_000,
    ) -> GCSResult:
        """Evaluate the scenario.

        ``method``: ``"fast"`` (vectorised lattice, decoupled groups —
        the default), ``"spn"`` (generic Figure 1 SPN, decoupled), or
        ``"spn-coupled"`` (``NG`` embedded in the marking; cyclic chain,
        linear solver — small ``N`` only).

        ``include_variance`` additionally computes the exact standard
        deviation of the time to security failure (one extra solver
        sweep; fast path only).
        """
        if method not in ("fast", "spn", "spn-coupled"):
            raise ParameterError(
                f"method must be fast|spn|spn-coupled, got {method!r}"
            )
        if include_variance and method != "fast":
            raise ParameterError(
                "include_variance is only supported by the fast method"
            )
        cost_model = GCSCostModel(
            self.params,
            self.network,
            sizes=sizes,
            ng_distribution=self.ng_distribution,
        )
        if method == "fast":
            return self._run_fast(cost_model, include_breakdown, include_variance)
        return self._run_spn(cost_model, include_breakdown, method, max_states)

    # ------------------------------------------------------------------
    def _run_fast(
        self,
        cost_model: GCSCostModel,
        include_breakdown: bool,
        include_variance: bool = False,
    ) -> GCSResult:
        t0 = time.perf_counter()
        lattice = build_lattice_chain(
            self.params, self.network, expected_groups=self.expected_groups
        )
        n_states = lattice.num_states
        costs = lattice_state_costs(
            lattice_structure(self.params.num_nodes),
            cost_model,
            per_component=include_breakdown,
        )
        rewards: dict[str, np.ndarray] = {}
        if include_breakdown:
            total = np.zeros(n_states)
            for name, vec in costs.items():
                padded = np.append(vec, 0.0)  # C1 state accrues nothing
                rewards[f"cost_{name}"] = padded
                total += padded
            rewards["cost"] = total
        else:
            rewards["cost"] = np.append(costs, 0.0)
        build_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        solution = analyze_absorbing(
            lattice.chain,
            initial=lattice.initial_state,
            rewards=rewards,
            absorbing_classes=lattice.absorbing_classes(),
            second_moment=include_variance,
        )
        solve_s = time.perf_counter() - t1

        return self._package(
            solution.mtta,
            solution.expected_reward("cost"),
            {
                str(FailureClass.C1_DATA_LEAK): solution.absorption_probability(
                    "c1_data_leak"
                ),
                str(FailureClass.C2_BYZANTINE): solution.absorption_probability(
                    "c2_byzantine"
                ),
                str(FailureClass.DEPLETION): solution.absorption_probability(
                    "depletion"
                ),
            },
            cost_model,
            n_states,
            solution.method,
            build_s,
            solve_s,
            breakdown={
                name.removeprefix("cost_"): solution.expected_reward(name)
                for name in rewards
                if name != "cost"
            }
            if include_breakdown
            else None,
            mttsf_std=solution.mtta_std if include_variance else None,
        )

    # ------------------------------------------------------------------
    def _run_spn(
        self,
        cost_model: GCSCostModel,
        include_breakdown: bool,
        method: str,
        max_states: int,
    ) -> GCSResult:
        coupled = method == "spn-coupled"
        t0 = time.perf_counter()
        rates = GCSRates.from_scenario(
            self.params,
            self.network,
            expected_groups=1.0 if coupled else self.expected_groups,
        )
        net = build_gcs_spn(
            self.params, self.network, rates=rates, coupled_groups=coupled
        )

        if coupled:
            context = cost_model.context

            def cost_fn(m):
                return context.component_rates(
                    m["Tm"],
                    m["UCm"],
                    m["DCm"],
                    max(m["NG"], 1),
                    detection=cost_model.detection,
                    voting=cost_model.voting,
                ).total

        else:

            def cost_fn(m):
                return cost_model.state_cost_rate(m["Tm"], m["UCm"], m["DCm"])

        def c1(m):
            return m["GF"] > 0

        def c2(m):
            t, u = m["Tm"], m["UCm"]
            return m["GF"] == 0 and u > 0 and 2 * u > t

        def dep(m):
            return m["GF"] == 0 and m["Tm"] + m["UCm"] == 0 and m["DCm"] == 0

        build_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        analysis = analyze_spn(
            net,
            rewards={"cost": cost_fn},
            absorbing_classes={
                "c1_data_leak": c1,
                "c2_byzantine": c2,
                "depletion": dep,
            },
            max_states=max_states,
        )
        solve_s = time.perf_counter() - t1

        if include_breakdown:
            raise ParameterError(
                "include_breakdown is only supported by the fast method; "
                "the SPN paths exist for cross-validation"
            )

        return self._package(
            analysis.mtta,
            analysis.expected_reward("cost"),
            {
                str(FailureClass.C1_DATA_LEAK): analysis.absorption_probability(
                    "c1_data_leak"
                ),
                str(FailureClass.C2_BYZANTINE): analysis.absorption_probability(
                    "c2_byzantine"
                ),
                str(FailureClass.DEPLETION): analysis.absorption_probability(
                    "depletion"
                ),
            },
            cost_model,
            analysis.chain.num_states,
            f"spn/{analysis.solution.method}",
            build_s,
            solve_s,
        )

    # ------------------------------------------------------------------
    def _package(
        self,
        mttsf: float,
        accumulated_cost: float,
        probs: dict[str, float],
        cost_model: GCSCostModel,
        n_states: int,
        solver: str,
        build_s: float,
        solve_s: float,
        *,
        breakdown: Optional[dict[str, float]] = None,
        mttsf_std: Optional[float] = None,
    ) -> GCSResult:
        if mttsf <= 0.0:
            raise ParameterError(
                "MTTSF evaluated to zero: the initial marking is already failed"
            )
        ctotal = accumulated_cost / mttsf
        if breakdown is not None and "total" not in breakdown:
            breakdown = {
                **{k: v / mttsf for k, v in breakdown.items()},
                "total": ctotal,
            }
        return GCSResult(
            params=self.params,
            mttsf_s=mttsf,
            ctotal_hop_bits_s=ctotal,
            failure_probabilities=probs,
            channel_utilization=cost_model.channel_utilization(ctotal),
            num_states=n_states,
            solver=solver,
            build_seconds=build_s,
            solve_seconds=solve_s,
            cost_breakdown=breakdown,
            mttsf_std_s=mttsf_std,
        )


def evaluate(
    params: GCSParameters,
    network: Optional[NetworkModel] = None,
    *,
    method: str = "fast",
    include_breakdown: bool = False,
    include_variance: bool = False,
    sizes: Optional[MessageSizes] = None,
    use_mobility: bool = False,
    seed: Optional[int] = None,
) -> GCSResult:
    """One-shot convenience wrapper around :class:`GCSEvaluation`."""
    net = resolve_network(params, network, use_mobility=use_mobility, seed=seed)
    engine = GCSEvaluation(params, net)
    return engine.run(
        method=method,
        include_breakdown=include_breakdown,
        include_variance=include_variance,
        sizes=sizes,
    )


# ---------------------------------------------------------------------------
# Structure-sharing batched evaluation
# ---------------------------------------------------------------------------

def _as_pair(
    scenario: BatchScenario,
) -> tuple[GCSParameters, Optional[NetworkModel]]:
    if isinstance(scenario, GCSParameters):
        return scenario, None
    try:
        params, network = scenario
    except (TypeError, ValueError):
        raise ParameterError(
            f"batch scenario must be GCSParameters or (params, network), "
            f"got {type(scenario).__name__}"
        ) from None
    if not isinstance(params, GCSParameters):
        raise ParameterError(
            f"batch scenario must be GCSParameters or (params, network), "
            f"got {type(params).__name__}"
        )
    return params, network


@dataclass
class _PreparedPoint:
    """One grid point's rate fill + rewards, ready for the shared sweep."""

    index: int
    params: GCSParameters
    values: np.ndarray
    reward_columns: list[np.ndarray]
    breakdown_names: Optional[list[str]]
    cost_model: GCSCostModel
    build_seconds: float


def _prepare_point(
    structure,
    index: int,
    params: GCSParameters,
    network: Optional[NetworkModel],
    *,
    include_breakdown: bool,
    sizes: Optional[MessageSizes],
) -> _PreparedPoint:
    """Mirror of :meth:`GCSEvaluation._run_fast`'s build stage."""
    t0 = time.perf_counter()
    # Costs first: the cost model checks the network against the
    # parameters before any rate is filled, as on the per-point path.
    with span("prepare.costs"):
        net = resolve_network(params, network)
        bd = BirthDeathProcess.for_group_count(
            net.partition_rate_hz,
            net.merge_rate_hz,
            params.groups.max_groups,
        )
        cost_model = GCSCostModel(
            params, net, sizes=sizes, ng_distribution=bd.level_distribution()
        )
        costs = lattice_state_costs(
            structure, cost_model, per_component=include_breakdown
        )
        # Reward columns exactly as the per-point path assembles them:
        # the C1 state accrues nothing, and with a breakdown the total
        # is its own solved column (not the sum of the component
        # solutions).
        reward_columns: list[np.ndarray] = []
        breakdown_names: Optional[list[str]] = None
        if include_breakdown:
            breakdown_names = list(costs)
            total = np.zeros(structure.num_states)
            for vec in costs.values():
                padded = np.append(vec, 0.0)
                reward_columns.append(padded)
                total += padded
            reward_columns.append(total)
        else:
            reward_columns.append(np.append(costs, 0.0))
    with span("prepare.rates"):
        rates = GCSRates.from_scenario(params, net, expected_groups=bd.mean_level())
        fill = fill_transition_rates(structure, rates)
    return _PreparedPoint(
        index=index,
        params=params,
        values=fill.values,
        reward_columns=reward_columns,
        breakdown_names=breakdown_names,
        cost_model=cost_model,
        build_seconds=time.perf_counter() - t0,
    )


def _chunk_size(structure, n_columns: int, max_batch_bytes: int) -> int:
    """Points per chunk under the working-set byte budget.

    Bounds the whole pipeline, not just the sweep: points are prepared
    (rate fill + reward columns), solved and packaged chunk by chunk.
    """
    n = structure.num_states
    # vals + ELL gather (~nnz each) + numerators, x, second-moment
    # scratch (~n·k each); 8 bytes per float.
    per_point = 8 * (2 * structure.nnz + n * (2 * n_columns + 4))
    return max(1, max_batch_bytes // max(per_point, 1))


def _solve_prepared(
    structure,
    prepared: Sequence[_PreparedPoint],
    *,
    include_variance: bool,
    kernel: Optional[str] = None,
) -> tuple[np.ndarray, Optional[np.ndarray], float]:
    """Run the shared backward sweep for one chunk of prepared points."""
    t0 = time.perf_counter()
    P = len(prepared)
    n = structure.num_states
    n_rewards = len(prepared[0].reward_columns)
    k = 1 + n_rewards + 3

    with span("solve.mean", points=P):
        numer = np.zeros((P, n, k))
        numer[:, :, 0] = 1.0  # hitting-time numerator (ignored at absorbing)
        for j, point in enumerate(prepared):
            for c, column in enumerate(point.reward_columns, start=1):
                numer[j, :, c] = column

        boundary = np.zeros((n, k))
        boundary[structure.c1_state, 1 + n_rewards] = 1.0
        boundary[structure.c2_states, 2 + n_rewards] = 1.0
        boundary[structure.depletion_states, 3 + n_rewards] = 1.0

        values = np.stack([point.values for point in prepared])
        x = solve_dag_batch(structure.dag, values, numer, boundary, kernel=kernel)

    m2: Optional[np.ndarray] = None
    if include_variance:
        with span("solve.variance", points=P):
            numer2 = np.ascontiguousarray(2.0 * x[:, :, 0:1])
            m2 = solve_dag_batch(
                structure.dag, values, numer2, np.zeros((n, 1)), kernel=kernel
            )[:, :, 0]
    return x, m2, time.perf_counter() - t0


def _package_point(
    structure,
    point: _PreparedPoint,
    x: np.ndarray,
    m2: Optional[np.ndarray],
    solve_seconds: float,
) -> GCSResult:
    """Mirror of :meth:`GCSEvaluation._package` for one solved column set."""
    init = structure.initial_state
    n_rewards = len(point.reward_columns)
    mttsf = float(x[init, 0])
    if mttsf <= 0.0:
        raise ParameterError(
            "MTTSF evaluated to zero: the initial marking is already failed"
        )
    accumulated_cost = float(x[init, n_rewards])  # last reward column
    ctotal = accumulated_cost / mttsf
    probs = {
        str(FailureClass.C1_DATA_LEAK): float(x[init, 1 + n_rewards]),
        str(FailureClass.C2_BYZANTINE): float(x[init, 2 + n_rewards]),
        str(FailureClass.DEPLETION): float(x[init, 3 + n_rewards]),
    }
    breakdown: Optional[dict[str, float]] = None
    if point.breakdown_names is not None:
        breakdown = {
            name: float(x[init, 1 + i]) / mttsf
            for i, name in enumerate(point.breakdown_names)
        }
        breakdown["total"] = ctotal
    mttsf_std: Optional[float] = None
    if m2 is not None:
        variance = max(float(m2[init]) - mttsf**2, 0.0)
        mttsf_std = float(np.sqrt(variance))
    return GCSResult(
        params=point.params,
        mttsf_s=mttsf,
        ctotal_hop_bits_s=ctotal,
        failure_probabilities=probs,
        channel_utilization=point.cost_model.channel_utilization(ctotal),
        num_states=structure.num_states,
        solver="acyclic-batch",
        build_seconds=point.build_seconds,
        solve_seconds=solve_seconds,
        cost_breakdown=breakdown,
        mttsf_std_s=mttsf_std,
    )


def evaluate_batch_outcomes(
    scenarios: Sequence[BatchScenario],
    *,
    method: str = "fast",
    include_breakdown: bool = False,
    include_variance: bool = False,
    sizes: Optional[MessageSizes] = None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
    kernel: Optional[str] = None,
) -> list[tuple[Optional[GCSResult], Optional[BaseException]]]:
    """Batched evaluation with per-point error capture.

    Returns one ``(result, error)`` pair per scenario, in input order —
    exactly one of the two is ``None``. A failing point (invalid rates,
    degenerate initial marking, …) never poisons its batch mates; this
    is the contract the engine's
    :class:`~repro.engine.executor.VectorBackend` builds
    :class:`~repro.engine.executor.PointOutcome` records from.

    ``kernel`` selects the batched-sweep tier explicitly
    (``numba``/``fused``/``numpy``); ``None`` follows ``REPRO_KERNEL``
    — see :func:`repro.ctmc.kernels.resolve_kernel`. Every tier
    produces bit-identical results, so the choice never enters cache
    keys or request fingerprints.
    """
    outcomes: list[tuple[Optional[GCSResult], Optional[BaseException]]] = [
        (None, None)
    ] * len(scenarios)
    pairs: list[Optional[tuple[GCSParameters, Optional[NetworkModel]]]] = []
    for i, scenario in enumerate(scenarios):
        try:
            pairs.append(_as_pair(scenario))
        except Exception as exc:  # noqa: BLE001 — per-point capture
            pairs.append(None)
            outcomes[i] = (None, exc)

    if method != "fast":
        # Only the fast lattice path has a shared structure to amortise;
        # SPN requests fall back to the per-point pipeline.
        for i, pair in enumerate(pairs):
            if pair is None:
                continue
            params, network = pair
            try:
                outcomes[i] = (
                    evaluate(
                        params,
                        network,
                        method=method,
                        include_breakdown=include_breakdown,
                        include_variance=include_variance,
                        sizes=sizes,
                    ),
                    None,
                )
            except Exception as exc:  # noqa: BLE001 — per-point capture
                outcomes[i] = (None, exc)
        return outcomes

    # Group by lattice size: points of equal N share one structure.
    by_nodes: dict[int, list[int]] = {}
    for i, pair in enumerate(pairs):
        if pair is not None:
            by_nodes.setdefault(pair[0].num_nodes, []).append(i)

    for num_nodes, group in by_nodes.items():
        structure = lattice_structure(num_nodes)
        n_rewards = (len(COMPONENT_NAMES) + 1) if include_breakdown else 1
        chunk = _chunk_size(structure, 1 + n_rewards + 3, max_batch_bytes)
        # Points are prepared chunk by chunk — a _PreparedPoint holds
        # nnz- and n-sized arrays, so preparing a whole group up front
        # would let a large sweep blow straight through the byte budget
        # the chunking exists to enforce.
        for start in range(0, len(group), chunk):
            prepared: list[_PreparedPoint] = []
            for i in group[start : start + chunk]:
                params, network = pairs[i]
                try:
                    prepared.append(
                        _prepare_point(
                            structure,
                            i,
                            params,
                            network,
                            include_breakdown=include_breakdown,
                            sizes=sizes,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 — per-point capture
                    outcomes[i] = (None, exc)
            if not prepared:
                continue
            x, m2, elapsed = _solve_prepared(
                structure,
                prepared,
                include_variance=include_variance,
                kernel=kernel,
            )
            share = elapsed / len(prepared)
            with span("package", points=len(prepared)):
                for j, point in enumerate(prepared):
                    try:
                        outcomes[point.index] = (
                            _package_point(
                                structure,
                                point,
                                x[j],
                                m2[j] if m2 is not None else None,
                                share,
                            ),
                            None,
                        )
                    except Exception as exc:  # noqa: BLE001 — per-point capture
                        outcomes[point.index] = (None, exc)

    return outcomes


# ---------------------------------------------------------------------------
# Time-bounded survivability (transient analysis)
# ---------------------------------------------------------------------------

def _validate_mission_times(times: Sequence[float]) -> tuple[float, ...]:
    times = require_sorted_unique("times", times)
    if times[0] < 0.0:
        raise ParameterError(f"times must be non-negative, got {times[0]!r}")
    return times


def _survivability_curves(
    dist: np.ndarray,
    times: tuple[float, ...],
    cost_padded: np.ndarray,
    initial_state: int,
    class_members: dict[str, list[int]],
    absorbing_mask: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Survival / CDF / cost curves from one point's ``(T, n)`` distributions.

    The quadrature for the time-bounded cost is a trapezoid over the
    mission grid anchored at ``t = 0`` with the initial marking's exact
    cost rate (``π(0)`` is a point mass, so ``c(0) = cost[initial]``).
    """
    ts = np.asarray(times)
    cdf: dict[str, np.ndarray] = {
        "any": (dist * absorbing_mask[None, :]).sum(axis=1)
    }
    for name, members in class_members.items():
        idx = np.asarray(members, dtype=int)
        cdf[name] = (
            dist[:, idx].sum(axis=1) if idx.size else np.zeros(ts.size)
        )
    survival = 1.0 - cdf["any"]
    cost_rate = dist @ cost_padded
    if ts[0] == 0.0:
        full_t, full_c = ts, cost_rate
    else:
        full_t = np.concatenate([[0.0], ts])
        full_c = np.concatenate([[cost_padded[initial_state]], cost_rate])
    segments = 0.5 * (full_c[1:] + full_c[:-1]) * np.diff(full_t)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    bounded = cumulative[-ts.size:]
    return survival, cdf, cost_rate, bounded


def evaluate_survivability(
    params: GCSParameters,
    network: Optional[NetworkModel] = None,
    *,
    times: Sequence[float],
    sizes: Optional[MessageSizes] = None,
    eps: float = 1e-12,
) -> SurvivabilityResult:
    """Survivability curve ``S(t)`` of one scenario over mission ``times``.

    The per-point reference path: builds the fast-lattice chain and runs
    uniformization (:func:`repro.ctmc.transient.transient_distribution`)
    over the strictly increasing, non-negative mission-time grid. The
    batched counterpart is :func:`evaluate_survivability_batch`.
    """
    times = _validate_mission_times(times)
    t0 = time.perf_counter()
    net = resolve_network(params, network)
    bd = BirthDeathProcess.for_group_count(
        net.partition_rate_hz, net.merge_rate_hz, params.groups.max_groups
    )
    lattice = build_lattice_chain(
        params, net, expected_groups=bd.mean_level()
    )
    cost_model = GCSCostModel(
        params, net, sizes=sizes, ng_distribution=bd.level_distribution()
    )
    costs = lattice_state_costs(lattice_structure(params.num_nodes), cost_model)
    cost_padded = np.append(costs, 0.0)  # C1 state accrues nothing
    build_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    dist = np.atleast_2d(
        transient_distribution(
            lattice.chain, times, lattice.initial_state, eps=eps
        )
    )
    survival, cdf, cost_rate, bounded = _survivability_curves(
        dist,
        times,
        cost_padded,
        lattice.initial_state,
        lattice.absorbing_classes(),
        lattice.chain.absorbing_mask,
    )
    solve_s = time.perf_counter() - t1

    return SurvivabilityResult(
        params=params,
        times_s=times,
        survival=tuple(float(s) for s in survival),
        failure_cdf={k: tuple(float(x) for x in v) for k, v in cdf.items()},
        expected_cost_rate=tuple(float(c) for c in cost_rate),
        time_bounded_cost=tuple(float(c) for c in bounded),
        num_states=lattice.num_states,
        solver="uniformization",
        build_seconds=build_s,
        solve_seconds=solve_s,
    )


def _survivability_chunk_size(
    structure, n_times: int, max_batch_bytes: int
) -> int:
    """Points per chunk under the working-set byte budget.

    Per point the batched uniformization holds the rate fill, the
    column-sorted gather copy and the per-step contribution (~nnz
    each) plus the accumulator, power vector and out-rate/diagonal
    rows (~n each); 8 bytes per float.
    """
    n = structure.num_states
    per_point = 8 * (3 * structure.nnz + n * (n_times + 4))
    return max(1, max_batch_bytes // max(per_point, 1))


def _package_survivability(
    structure,
    point: _PreparedPoint,
    dist: np.ndarray,
    times: tuple[float, ...],
    class_members: dict[str, list[int]],
    absorbing_mask: np.ndarray,
    solve_seconds: float,
) -> SurvivabilityResult:
    """One batched point's curves, packaged as :func:`evaluate_survivability`."""
    survival, cdf, cost_rate, bounded = _survivability_curves(
        dist,
        times,
        point.reward_columns[0],
        structure.initial_state,
        class_members,
        absorbing_mask,
    )
    return SurvivabilityResult(
        params=point.params,
        times_s=times,
        survival=tuple(float(s) for s in survival),
        failure_cdf={k: tuple(float(x) for x in v) for k, v in cdf.items()},
        expected_cost_rate=tuple(float(c) for c in cost_rate),
        time_bounded_cost=tuple(float(c) for c in bounded),
        num_states=structure.num_states,
        solver="uniformization-batch",
        build_seconds=point.build_seconds,
        solve_seconds=solve_seconds,
    )


def evaluate_survivability_batch_outcomes(
    scenarios: Sequence[BatchScenario],
    *,
    times: Sequence[float],
    sizes: Optional[MessageSizes] = None,
    eps: float = 1e-12,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
    kernel: Optional[str] = None,
    transient_backend: Optional[str] = None,
) -> list[tuple[Optional[SurvivabilityResult], Optional[BaseException]]]:
    """Batched survivability with per-point error capture.

    Mirrors :func:`evaluate_batch_outcomes`: one ``(result, error)``
    pair per scenario in input order, grouped by lattice size so every
    group shares one cached :class:`~repro.core.fastpath.LatticeStructure`
    and one multi-point uniformization sweep
    (:func:`repro.ctmc.transient.transient_distribution_batch`).
    ``kernel`` picks the matvec tier and ``transient_backend`` the
    algorithm (``uniformization``/``expm``); both default to their
    environment switches (``REPRO_KERNEL`` /
    ``REPRO_TRANSIENT_BACKEND``).
    """
    outcomes: list[
        tuple[Optional[SurvivabilityResult], Optional[BaseException]]
    ] = [(None, None)] * len(scenarios)
    try:
        times = _validate_mission_times(times)
    except Exception as exc:  # noqa: BLE001 — shared-argument failure
        # A bad shared time grid fails every point identically, exactly
        # as a per-point loop would — keeps backend semantics equal.
        return [(None, exc)] * len(scenarios)
    pairs: list[Optional[tuple[GCSParameters, Optional[NetworkModel]]]] = []
    for i, scenario in enumerate(scenarios):
        try:
            pairs.append(_as_pair(scenario))
        except Exception as exc:  # noqa: BLE001 — per-point capture
            pairs.append(None)
            outcomes[i] = (None, exc)

    by_nodes: dict[int, list[int]] = {}
    for i, pair in enumerate(pairs):
        if pair is not None:
            by_nodes.setdefault(pair[0].num_nodes, []).append(i)

    for num_nodes, group in by_nodes.items():
        structure = lattice_structure(num_nodes)
        class_members = structure.absorbing_classes()
        chunk = _survivability_chunk_size(structure, len(times), max_batch_bytes)
        for start in range(0, len(group), chunk):
            prepared: list[_PreparedPoint] = []
            for i in group[start : start + chunk]:
                params, network = pairs[i]
                try:
                    prepared.append(
                        _prepare_point(
                            structure,
                            i,
                            params,
                            network,
                            include_breakdown=False,
                            sizes=sizes,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 — per-point capture
                    outcomes[i] = (None, exc)
            if not prepared:
                continue
            t0 = time.perf_counter()
            try:
                with span("solve.transient", points=len(prepared)):
                    values = np.stack([point.values for point in prepared])
                    dist = transient_distribution_batch(
                        structure.indptr,
                        structure.indices,
                        values,
                        np.asarray(times),
                        structure.initial_state,
                        eps=eps,
                        kernel=kernel,
                        backend=transient_backend,
                    )
            except Exception as exc:  # noqa: BLE001 — chunk-level capture
                # A shared-sweep failure (e.g. invalid eps) fails every
                # chunk member, matching per-point loop semantics.
                for point in prepared:
                    outcomes[point.index] = (None, exc)
                continue
            share = (time.perf_counter() - t0) / len(prepared)
            with span("package", points=len(prepared)):
                q = csr_row_sums(structure.indptr, values)
                for j, point in enumerate(prepared):
                    try:
                        outcomes[point.index] = (
                            _package_survivability(
                                structure,
                                point,
                                dist[j],
                                times,
                                class_members,
                                q[j] == 0.0,
                                share,
                            ),
                            None,
                        )
                    except Exception as exc:  # noqa: BLE001 — per-point capture
                        outcomes[point.index] = (None, exc)

    return outcomes


def evaluate_survivability_batch(
    scenarios: Sequence[BatchScenario],
    *,
    times: Sequence[float],
    sizes: Optional[MessageSizes] = None,
    eps: float = 1e-12,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
) -> list[SurvivabilityResult]:
    """Evaluate survivability curves for many scenarios in one sweep.

    The batched counterpart of :func:`evaluate_survivability`: points
    are grouped by ``num_nodes``, rate fills stacked, and one
    multi-point uniformization pass computes every point's transient
    distributions over the whole mission grid — numerically equivalent
    to the per-point path within
    :data:`repro.ctmc.transient.BATCH_EQUIVALENCE_RTOL` (asserted by
    the differential test layer). Raises the first per-point failure;
    use :func:`evaluate_survivability_batch_outcomes` for capture.
    """
    outcomes = evaluate_survivability_batch_outcomes(
        scenarios,
        times=times,
        sizes=sizes,
        eps=eps,
        max_batch_bytes=max_batch_bytes,
    )
    results: list[SurvivabilityResult] = []
    for result, error in outcomes:
        if error is not None:
            raise error
        assert result is not None
        results.append(result)
    return results


def evaluate_batch(
    scenarios: Sequence[BatchScenario],
    *,
    method: str = "fast",
    include_breakdown: bool = False,
    include_variance: bool = False,
    sizes: Optional[MessageSizes] = None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
) -> list[GCSResult]:
    """Evaluate many scenarios with one structure-sharing solver sweep.

    The batched counterpart of :func:`evaluate`: grid points are
    grouped by ``num_nodes`` (each group shares one cached lattice
    structure), their rate fills are stacked, and a single multi-point
    level-scheduled backward sweep solves every point simultaneously —
    including the variance sweep when ``include_variance`` is set.
    Results are **bit-identical** to calling :func:`evaluate` per point
    (asserted by the test suite) and come back in input order.

    Raises the first per-point failure, matching the exception
    semantics of a serial loop; use :func:`evaluate_batch_outcomes`
    for per-point error capture.
    """
    outcomes = evaluate_batch_outcomes(
        scenarios,
        method=method,
        include_breakdown=include_breakdown,
        include_variance=include_variance,
        sizes=sizes,
        max_batch_bytes=max_batch_bytes,
    )
    results: list[GCSResult] = []
    for result, error in outcomes:
        if error is not None:
            raise error
        assert result is not None
        results.append(result)
    return results
