"""The ``evaluate()`` pipeline: parameters → MTTSF + Ĉtotal.

This is the reproduction's main entry point. It assembles the scenario
(network model, ``NG`` birth–death distribution, rate bundle, cost
model), builds the security chain (vectorised lattice by default, the
literal Figure 1 SPN on request), and runs the absorbing analysis:

* **MTTSF** = mean time to absorption from the all-trusted marking;
* **Ĉtotal** = expected accumulated communication cost ÷ MTTSF;
* failure-mode split across C1 / C2 / depletion.

:func:`evaluate_batch` solves a whole *sweep* at once, and
:func:`evaluate` is its one-point call. The paper's artifacts are
sweeps whose grid points share the lattice topology and differ only in
rates, so the batch path reuses one cached
:class:`~repro.core.fastpath.LatticeStructure` per group size and runs
a single multi-point level-scheduled backward sweep
(:func:`repro.ctmc.acyclic.solve_dag_batch`). Each point brings only
its small rate-source and pair-cost vectors; one gather per chunk lays
them out point-innermost, as the sweep's slot-major ``(nnz + 1, P)``
rates and ``(n, P)`` reward numerators, and the sweep returns an ``(n,
k, P)`` solution — no step mixes points, so a point gets the same
bytes alone or in any batch. The sweep runs in the structure's *solve
space*, the states reachable from the initial marking. The test suite
pins it against :func:`repro.ctmc.absorbing.analyze_absorbing` on the
full lattice chain (:func:`repro.core.fastpath.build_lattice_chain`).

:func:`evaluate_survivability_batch` is the *transient* counterpart:
instead of steady-state absorption quantities it computes the
time-bounded survivability curve ``S(t) = P(no security failure by
t)`` over a mission-time grid, per failure class, with expected cost
rates and trapezoidal time-bounded costs — batched by the same
structure-sharing recipe
(:func:`repro.ctmc.transient.transient_distribution_batch`).
:func:`evaluate_survivability` is its one-point call, so one scenario
gets the same bytes alone or in any batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..costs.aggregate import GCSCostModel
from ..costs.components import COMPONENT_NAMES
from ..costs.sizes import MessageSizes
from ..ctmc.acyclic import solve_dag_batch
from ..ctmc.birth_death import BirthDeathProcess
from ..ctmc.transient import csr_row_sums, transient_distribution_batch
from ..errors import ParameterError
from ..manet.network import NetworkModel
from ..obs import span
from ..params import GCSParameters
from ..spn.analysis import analyze_spn
from ..validation import require_sorted_unique
from .failure import FailureClass
from .fastpath import (
    TransitionRateFill,
    fill_transition_rates,
    lattice_pair_costs,
    lattice_structure,
)
from .model import build_gcs_spn
from .rates import GCSRates
from .results import GCSResult, SurvivabilityResult

__all__ = [
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
    """Evaluate one scenario.

    ``method``: ``"fast"`` (vectorised lattice, decoupled groups — the
    default), ``"spn"`` (generic Figure 1 SPN, decoupled), or
    ``"spn-coupled"`` (``NG`` embedded in the marking; cyclic chain,
    linear solver — small ``N`` only). The fast method is the one-point
    call of :func:`evaluate_batch`, so one scenario gets the same bytes
    alone or in any batch.

    ``include_variance`` additionally computes the exact standard
    deviation of the time to security failure (one extra solver sweep)
    and ``include_breakdown`` the per-component cost split; both are
    fast-method only.
    """
    net = resolve_network(params, network, use_mobility=use_mobility, seed=seed)
    if method != "fast":
        return _evaluate_spn(
            params,
            net,
            method=method,
            include_breakdown=include_breakdown,
            include_variance=include_variance,
            sizes=sizes,
        )
    ((result, error),) = evaluate_batch_outcomes(
        [(params, net)],
        include_breakdown=include_breakdown,
        include_variance=include_variance,
        sizes=sizes,
    )
    if error is not None:
        raise error
    return result


def _cost_model(
    params: GCSParameters, network: NetworkModel, sizes: Optional[MessageSizes]
) -> tuple[GCSCostModel, float]:
    """The scenario's cost model and its expected group count ``E[NG]``."""
    bd = BirthDeathProcess.for_group_count(
        network.partition_rate_hz, network.merge_rate_hz, params.groups.max_groups
    )
    cost_model = GCSCostModel(
        params, network, sizes=sizes, ng_distribution=bd.level_distribution()
    )
    return cost_model, bd.mean_level()


def _package(
    params: GCSParameters,
    cost_model: GCSCostModel,
    *,
    mttsf: float,
    accumulated_cost: float,
    probabilities: dict[str, float],
    num_states: int,
    solver: str,
    build_seconds: float,
    solve_seconds: float,
    breakdown: Optional[dict[str, float]] = None,
    mttsf_std: Optional[float] = None,
) -> GCSResult:
    """A :class:`GCSResult` from one solve's initial-marking values.

    ``breakdown`` holds each cost component's accumulated cost; it is
    reported per unit of MTTSF, next to the ``"total"`` Ĉtotal.
    """
    if mttsf <= 0.0:
        raise ParameterError(
            "MTTSF evaluated to zero: the initial marking is already failed"
        )
    ctotal = accumulated_cost / mttsf
    if breakdown is not None:
        breakdown = {name: value / mttsf for name, value in breakdown.items()}
        breakdown["total"] = ctotal
    return GCSResult(
        params=params,
        mttsf_s=mttsf,
        ctotal_hop_bits_s=ctotal,
        failure_probabilities=probabilities,
        channel_utilization=cost_model.channel_utilization(ctotal),
        num_states=num_states,
        solver=solver,
        build_seconds=build_seconds,
        solve_seconds=solve_seconds,
        cost_breakdown=breakdown,
        mttsf_std_s=mttsf_std,
    )


def _evaluate_spn(
    params: GCSParameters,
    network: NetworkModel,
    *,
    method: str,
    include_breakdown: bool,
    include_variance: bool,
    sizes: Optional[MessageSizes],
) -> GCSResult:
    """Solve one scenario through the generic Figure 1 SPN.

    The SPN methods exist to cross-validate the lattice, so they take
    no breakdown and no variance; both are refused before any build.
    """
    if method not in ("spn", "spn-coupled"):
        raise ParameterError(f"method must be fast|spn|spn-coupled, got {method!r}")
    if include_variance:
        raise ParameterError("include_variance is only supported by the fast method")
    if include_breakdown:
        raise ParameterError(
            "include_breakdown is only supported by the fast method; "
            "the SPN paths exist for cross-validation"
        )
    coupled = method == "spn-coupled"
    t0 = time.perf_counter()
    cost_model, expected_groups = _cost_model(params, network, sizes)
    rates = GCSRates.from_scenario(
        params, network, expected_groups=1.0 if coupled else expected_groups
    )
    net = build_gcs_spn(params, network, rates=rates, coupled_groups=coupled)

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
    )
    solve_s = time.perf_counter() - t1
    return _package(
        params,
        cost_model,
        mttsf=analysis.mtta,
        accumulated_cost=analysis.expected_reward("cost"),
        probabilities={
            str(cls): analysis.absorption_probability(str(cls)) for cls in FailureClass
        },
        num_states=analysis.chain.num_states,
        solver=f"spn/{analysis.solution.method}",
        build_seconds=build_s,
        solve_seconds=solve_s,
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
    """One grid point's rate fill + rewards, ready for the shared sweep.

    Both are small: ``fill`` holds the rate-source vector, and each of
    ``rewards`` is a reward per ``(t, u)`` pair plus a trailing ``0.0``
    for the C1 state (it accrues nothing), which ``structure.solve_pair``
    gathers onto the solve space.
    """

    index: int
    params: GCSParameters
    fill: TransitionRateFill
    rewards: list[np.ndarray]
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
    """Build one point's cost model, reward columns and rate fill."""
    t0 = time.perf_counter()
    # Costs first: the cost model checks the network against the
    # parameters before any rate is filled.
    with span("prepare.costs"):
        net = resolve_network(params, network)
        cost_model, expected_groups = _cost_model(params, net, sizes)
        costs = lattice_pair_costs(
            structure, cost_model, per_component=include_breakdown
        )
        # Reward columns per pair: the C1 state accrues nothing, and
        # with a breakdown the total is its own solved column (not the
        # sum of the component solutions), summed component by
        # component.
        rewards: list[np.ndarray] = []
        breakdown_names: Optional[list[str]] = None
        if include_breakdown:
            breakdown_names = list(costs)
            total = np.zeros(structure.pair_t.size + 1)
            for vec in costs.values():
                column = np.append(vec, 0.0)
                rewards.append(column)
                total += column
            rewards.append(total)
        else:
            rewards.append(np.append(costs, 0.0))
    with span("prepare.rates"):
        rates = GCSRates.from_scenario(params, net, expected_groups=expected_groups)
        fill = fill_transition_rates(structure, rates)
    return _PreparedPoint(
        index=index,
        params=params,
        fill=fill,
        rewards=rewards,
        breakdown_names=breakdown_names,
        cost_model=cost_model,
        build_seconds=time.perf_counter() - t0,
    )


def _chunk_size(
    structure, n_rewards: int, include_variance: bool, max_batch_bytes: int
) -> int:
    """Points per chunk under the working-set byte budget.

    Bounds the whole pipeline, not just the sweep: points are prepared,
    solved and packaged chunk by chunk. Per point, at 8 bytes a float:
    the sweep's slot-major rates (``nnz + 1``), and on the solve space
    (``n`` states) the solution ``x`` (``1 + n_rewards + 3`` columns),
    the reward numerators (``n_rewards`` columns) and, with the
    variance, its numerator and solution (one column each). A prepared
    point's own vectors and a level's scratch are per pair or per
    level, small against these.
    """
    dag = structure.dag
    columns = (1 + n_rewards + 3) + n_rewards + (2 if include_variance else 0)
    per_point = 8 * (dag.nnz + 1 + dag.num_states * columns)
    return max(1, max_batch_bytes // per_point)


def _gather_points(vectors: Sequence[np.ndarray], plan: np.ndarray) -> np.ndarray:
    """``(plan.size, P)``: column ``j`` is ``vectors[j][plan]``."""
    stacked = np.ascontiguousarray(np.array(vectors).T)
    return np.take(stacked, plan, axis=0)


def _solve_prepared(
    structure,
    prepared: Sequence[_PreparedPoint],
    *,
    include_variance: bool,
) -> tuple[np.ndarray, Optional[np.ndarray], float]:
    """Run the shared backward sweep for one chunk of prepared points.

    The sweep runs in the structure's solve space: numerator and
    boundary rows exist only for ``structure.solve_states``. The
    chunk's rates are written once, by one gather of its ``(S + 1, P)``
    source matrix into the sweep's slot-major ``(nnz + 1, P)`` buffer;
    the reward numerators likewise, from the pair-level rewards. ``x``
    is point-innermost ``(n, k, P)`` and ``m2`` is ``(n, P)``.
    """
    t0 = time.perf_counter()
    P = len(prepared)
    n = structure.dag.num_states
    n_rewards = len(prepared[0].rewards)
    k = 1 + n_rewards + 3

    with span("solve.mean", points=P):
        rates = _gather_points(
            [point.fill.source for point in prepared], structure.slot_source
        )
        # Columns: hitting time (numerator 1.0), the rewards, then the
        # three absorption indicators (numerator 0.0).
        numerators = [1.0]
        for j in range(n_rewards):
            numerators.append(
                _gather_points(
                    [point.rewards[j] for point in prepared], structure.solve_pair
                )
            )
        numerators += [0.0, 0.0, 0.0]

        classes = structure.solve_classes()
        boundary = np.zeros((n, k))
        boundary[classes["c1_data_leak"], 1 + n_rewards] = 1.0
        boundary[classes["c2_byzantine"], 2 + n_rewards] = 1.0
        boundary[classes["depletion"], 3 + n_rewards] = 1.0

        x = solve_dag_batch(structure.dag, rates, numerators, boundary)

    m2: Optional[np.ndarray] = None
    if include_variance:
        with span("solve.variance", points=P):
            boundary2 = np.zeros((n, 1))
            m2 = solve_dag_batch(structure.dag, rates, [2.0 * x[:, 0]], boundary2)[:, 0]
    return x, m2, time.perf_counter() - t0


def _package_point(
    structure,
    point: _PreparedPoint,
    x: np.ndarray,
    m2: Optional[np.ndarray],
    solve_seconds: float,
) -> GCSResult:
    """Package one point's solved ``(n, k)`` columns (and ``m2``)."""
    row = x[structure.solve_initial].tolist()
    n_rewards = len(point.rewards)
    mttsf = row[0]
    breakdown: Optional[dict[str, float]] = None
    if point.breakdown_names is not None:
        breakdown = dict(zip(point.breakdown_names, row[1:n_rewards]))
    mttsf_std: Optional[float] = None
    if m2 is not None:
        variance = max(float(m2[structure.solve_initial]) - mttsf**2, 0.0)
        mttsf_std = float(np.sqrt(variance))
    return _package(
        point.params,
        point.cost_model,
        mttsf=mttsf,
        accumulated_cost=row[n_rewards],  # last reward column
        probabilities={
            str(FailureClass.C1_DATA_LEAK): row[1 + n_rewards],
            str(FailureClass.C2_BYZANTINE): row[2 + n_rewards],
            str(FailureClass.DEPLETION): row[3 + n_rewards],
        },
        num_states=structure.num_states,
        solver="acyclic-batch",
        build_seconds=point.build_seconds,
        solve_seconds=solve_seconds,
        breakdown=breakdown,
        mttsf_std=mttsf_std,
    )


def evaluate_batch_outcomes(
    scenarios: Sequence[BatchScenario],
    *,
    method: str = "fast",
    include_breakdown: bool = False,
    include_variance: bool = False,
    sizes: Optional[MessageSizes] = None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
) -> list[tuple[Optional[GCSResult], Optional[BaseException]]]:
    """Batched evaluation with per-point error capture.

    Returns one ``(result, error)`` pair per scenario, in input order —
    exactly one of the two is ``None``. A failing point (invalid rates,
    degenerate initial marking, …) never poisons its batch mates; this
    is the contract the engine's
    :class:`~repro.engine.executor.VectorBackend` builds
    :class:`~repro.engine.executor.PointOutcome` records from.
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
        # the SPN methods solve point by point.
        for i, pair in enumerate(pairs):
            if pair is None:
                continue
            params, network = pair
            try:
                outcomes[i] = (
                    _evaluate_spn(
                        params,
                        resolve_network(params, network),
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
        chunk = _chunk_size(structure, n_rewards, include_variance, max_batch_bytes)
        # Points are prepared chunk by chunk, so a prepared point never
        # outlives its chunk's sweep.
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
            )
            share = elapsed / len(prepared)
            with span("package", points=len(prepared)):
                for j, point in enumerate(prepared):
                    try:
                        outcomes[point.index] = (
                            _package_point(
                                structure,
                                point,
                                x[:, :, j],
                                m2[:, j] if m2 is not None else None,
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


def evaluate_survivability(
    params: GCSParameters,
    network: Optional[NetworkModel] = None,
    *,
    times: Sequence[float],
    sizes: Optional[MessageSizes] = None,
    eps: float = 1e-12,
) -> SurvivabilityResult:
    """Survivability curve ``S(t)`` of one scenario over mission ``times``.

    The one-point call of :func:`evaluate_survivability_batch`: the
    point is prepared, solved on the solve space and packaged by the
    same code as a batched point, so every backend returns the same
    bytes. ``times`` must be strictly increasing and non-negative.
    """
    (result,) = evaluate_survivability_batch(
        [(params, network)], times=times, sizes=sizes, eps=eps
    )
    return result


def _survivability_chunk_size(
    structure, n_times: int, max_batch_bytes: int
) -> int:
    """Points per chunk under the working-set byte budget.

    Per point the stacked-CSR uniformization holds, in the solve space
    (``structure.dag``) and at 8 bytes per float: the rate fill and
    the stiff-state truncation's masked copy of it (nnz each); the
    stacked jump matrix's data, assembled once unpermuted and once
    permuted, and its int32 indices (nnz + n slots, 2.5 floats each);
    the time-major accumulator, its point-major copy and the returned
    distributions (n per time each); the power vector and its
    successor, the out-rates and their cut copy, and the reward column
    (n each). Chunking never changes a point's bytes.
    """
    dag = structure.dag
    n = dag.num_states
    per_point = 8 * (
        2 * dag.nnz + 2.5 * (dag.nnz + n) + n * (3 * n_times + 5)
    )
    return max(1, int(max_batch_bytes // per_point))


def _package_survivability(
    structure,
    point: _PreparedPoint,
    dist: np.ndarray,
    times: tuple[float, ...],
    class_members: dict[str, list[int]],
    absorbing_mask: np.ndarray,
    solve_seconds: float,
) -> SurvivabilityResult:
    """Survival / CDF / cost curves from one point's ``(T, n)`` distributions.

    ``dist``, ``class_members``, ``absorbing_mask`` and the point's cost
    column are all on the solve space. The quadrature for the
    time-bounded cost is a trapezoid over the mission grid anchored at
    ``t = 0`` with the initial marking's exact cost rate (``π(0)`` is a
    point mass, so ``c(0) = cost[initial]``).
    """
    ts = np.asarray(times)
    cost = point.rewards[0][structure.solve_pair]
    cdf: dict[str, np.ndarray] = {
        "any": (dist * absorbing_mask[None, :]).sum(axis=1)
    }
    for name, members in class_members.items():
        idx = np.asarray(members, dtype=int)
        cdf[name] = (
            dist[:, idx].sum(axis=1) if idx.size else np.zeros(ts.size)
        )
    survival = 1.0 - cdf["any"]
    cost_rate = dist @ cost
    if ts[0] == 0.0:
        full_t, full_c = ts, cost_rate
    else:
        full_t = np.concatenate([[0.0], ts])
        full_c = np.concatenate([[cost[structure.solve_initial]], cost_rate])
    segments = 0.5 * (full_c[1:] + full_c[:-1]) * np.diff(full_t)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    bounded = cumulative[-ts.size:]
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
) -> list[tuple[Optional[SurvivabilityResult], Optional[BaseException]]]:
    """Batched survivability with per-point error capture.

    Mirrors :func:`evaluate_batch_outcomes`: one ``(result, error)``
    pair per scenario in input order, grouped by lattice size so every
    group shares one cached :class:`~repro.core.fastpath.LatticeStructure`
    and one multi-point uniformization sweep
    (:func:`repro.ctmc.transient.transient_distribution_batch`).
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
        class_members = structure.solve_classes()
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
                    # One gather of the chunk's sources: (P, nnz) fills.
                    sources = np.array([point.fill.source for point in prepared])
                    values = sources[:, structure.rate_gather]
                    dist = transient_distribution_batch(
                        structure.dag.indptr,
                        structure.dag.indices,
                        values,
                        np.asarray(times),
                        structure.solve_initial,
                        eps=eps,
                    )
            except Exception as exc:  # noqa: BLE001 — chunk-level capture
                # A shared-sweep failure (e.g. invalid eps) fails every
                # chunk member, matching per-point loop semantics.
                for point in prepared:
                    outcomes[point.index] = (None, exc)
                continue
            share = (time.perf_counter() - t0) / len(prepared)
            with span("package", points=len(prepared)):
                q = csr_row_sums(structure.dag.indptr, values)
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

    Points are grouped by ``num_nodes``, rate fills stacked, and one
    multi-point uniformization pass computes every point's transient
    distributions over the whole mission grid. No step mixes points,
    so each result equals :func:`evaluate_survivability` (its one-point
    call) on that point with ``==``. Raises the first per-point
    failure; use :func:`evaluate_survivability_batch_outcomes` for
    capture.
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

    Grid points are grouped by ``num_nodes`` (each group shares one
    cached lattice structure), their rate fills are stacked, and a
    single multi-point level-scheduled backward sweep solves every
    point simultaneously — including the variance sweep when
    ``include_variance`` is set. No step mixes points, so each result
    equals :func:`evaluate` (its one-point call) on that point with
    ``==``; results come back in input order.

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
