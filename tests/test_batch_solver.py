"""Structure-sharing batched lattice solver: bit-identity + routing.

The batched path must be *bit-identical* — not approximately equal —
to an independent per-point oracle (:func:`_lattice_oracle`:
``analyze_absorbing`` on the full lattice chain) across the paper's
figure grids, including the variance sweep and the cost breakdown.
These tests pin that contract at a reduced ``N`` (the arithmetic is
size-independent; the N = 100 campaign is pinned by
``perfbench/reference/paper-full.json``), and cover the engine
routing: ``VectorBackend`` / ``--jobs vector``, cache hit/miss parity
across serial, vector and vector:N, ``tradeoff_curve`` and
``SweepJob`` campaigns.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants as C
from repro.core.failure import FailureClass
from repro.core.fastpath import (
    build_lattice_chain,
    clear_structure_cache,
    fill_transition_rates,
    lattice_state_costs,
    lattice_structure,
)
from repro.core.metrics import (
    DEFAULT_BATCH_BYTES,
    evaluate,
    evaluate_batch,
    evaluate_batch_outcomes,
    resolve_network,
)
from repro.core.optimizer import tradeoff_curve
from repro.core.rates import GCSRates
from repro.core.results import GCSResult
from repro.costs.aggregate import GCSCostModel
from repro.ctmc.absorbing import analyze_absorbing
from repro.ctmc.acyclic import (
    _out_rates,
    batch_dag_structure,
    solve_dag,
    solve_dag_batch,
    topological_levels,
)
from repro.ctmc.birth_death import BirthDeathProcess
from repro.ctmc.chain import CTMC
from repro.engine import (
    BatchRunner,
    Campaign,
    EvalRequest,
    ResultCache,
    SerialBackend,
    SweepJob,
    VectorBackend,
    make_backend,
    make_runner,
)
from repro.engine.batch import evaluate_request
from repro.errors import ModelError, ParameterError, SolverError
from repro.params import GCSParameters

N_TEST = 16  # full paper grids at a lattice size that solves in ms


def _fig2_scenarios() -> list[GCSParameters]:
    return _fig2_scenarios_at(N_TEST)


def _fig2_scenarios_at(num_nodes: int) -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=num_nodes)
    return [
        base.replacing(num_voters=m, detection_interval_s=float(tids))
        for m in C.PAPER_M_VALUES
        for tids in C.PAPER_TIDS_GRID_S
    ]


def _fig4_scenarios() -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(detection_function=fn, detection_interval_s=float(tids))
        for fn in ("logarithmic", "linear", "polynomial")
        for tids in C.PAPER_TIDS_GRID_S
    ]


def _lattice_oracle(
    params, network=None, *, include_breakdown=False, include_variance=False
):
    """One point solved per point: ``analyze_absorbing`` on the full chain.

    It takes the same rate fill and cost vector as the batched pipeline
    but none of its solve or packaging code — no solve space, no shared
    sweep: it builds the whole lattice chain, walks it with the generic
    CTMC API and assembles its own :class:`GCSResult`. The reward
    columns are per state: the C1 state accrues nothing, and with a
    breakdown the total is its own solved column.
    """
    net = resolve_network(params, network)
    bd = BirthDeathProcess.for_group_count(
        net.partition_rate_hz, net.merge_rate_hz, params.groups.max_groups
    )
    cost_model = GCSCostModel(params, net, ng_distribution=bd.level_distribution())
    lattice = build_lattice_chain(params, net, expected_groups=bd.mean_level())
    costs = lattice_state_costs(
        lattice_structure(params.num_nodes),
        cost_model,
        per_component=include_breakdown,
    )
    rewards = {}
    if include_breakdown:
        total = np.zeros(lattice.num_states)
        for name, vec in costs.items():
            padded = np.append(vec, 0.0)
            rewards[name] = padded
            total += padded
        rewards["cost"] = total
    else:
        rewards["cost"] = np.append(costs, 0.0)
    solution = analyze_absorbing(
        lattice.chain,
        initial=lattice.initial_state,
        rewards=rewards,
        absorbing_classes=lattice.absorbing_classes(),
        second_moment=include_variance,
    )
    mttsf = solution.mtta
    ctotal = solution.expected_reward("cost") / mttsf
    breakdown = None
    if include_breakdown:
        breakdown = {
            name: solution.expected_reward(name) / mttsf
            for name in rewards
            if name != "cost"
        }
        breakdown["total"] = ctotal
    return GCSResult(
        params=params,
        mttsf_s=mttsf,
        ctotal_hop_bits_s=ctotal,
        failure_probabilities={
            str(cls): solution.absorption_probability(str(cls))
            for cls in (
                FailureClass.C1_DATA_LEAK,
                FailureClass.C2_BYZANTINE,
                FailureClass.DEPLETION,
            )
        },
        channel_utilization=cost_model.channel_utilization(ctotal),
        num_states=lattice.num_states,
        solver=f"oracle/{solution.method}",
        build_seconds=0.0,
        solve_seconds=0.0,
        cost_breakdown=breakdown,
        mttsf_std_s=solution.mtta_std if include_variance else None,
    )


def _assert_identical(batch_result, point_result, *, variance=False):
    assert batch_result.mttsf_s == point_result.mttsf_s
    assert batch_result.ctotal_hop_bits_s == point_result.ctotal_hop_bits_s
    assert batch_result.channel_utilization == point_result.channel_utilization
    assert dict(batch_result.failure_probabilities) == dict(
        point_result.failure_probabilities
    )
    assert batch_result.num_states == point_result.num_states
    if variance:
        assert batch_result.mttsf_std_s == point_result.mttsf_std_s


# ---------------------------------------------------------------------------
# solve_dag_batch unit level
# ---------------------------------------------------------------------------

def _slot_major(values):
    """``(P, nnz)`` fills as the sweep's ``(nnz + 1, P)`` rates."""
    return np.concatenate([values.T, np.zeros((1, values.shape[0]))])


def _sweep_out_rates(shared, values):
    """``(P, n)`` out-rates as the sweep takes them from its ELL gathers."""
    rows = np.concatenate(shared.structure.level_states)
    slots = shared.lvl_ell_slots
    q = np.zeros((shared.num_states, values.shape[0]))
    q[rows] = _out_rates(_slot_major(values)[slots], slots, shared.nnz)
    return q.T


def _random_dag_chain(rng, n=40, density=0.2):
    """Strictly lower-triangular random rate matrix (guaranteed DAG)."""
    transitions = []
    for src in range(1, n):
        for dst in range(src):
            if rng.random() < density:
                transitions.append((src, dst, float(rng.uniform(0.1, 5.0))))
    return CTMC.from_transitions(n, transitions)


class TestSolveDagBatch:
    def test_matches_solve_dag_per_point(self):
        rng = np.random.default_rng(7)
        chain = _random_dag_chain(rng)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n, k, P = chain.num_states, 3, 5

        scales = rng.uniform(0.5, 2.0, size=P)
        values = np.stack([R.data * s for s in scales])
        numer = rng.uniform(0.0, 1.0, size=(n, P, k))
        boundary = np.zeros((n, k))
        boundary[chain.absorbing_states, 0] = 1.0

        x = solve_dag_batch(
            shared, _slot_major(values), numer.transpose(2, 0, 1), boundary
        )
        for p in range(P):
            import scipy.sparse as sp

            chain_p = CTMC(
                sp.csr_matrix(
                    (values[p], R.indices.copy(), R.indptr.copy()),
                    shape=R.shape,
                )
            )
            structure_p = topological_levels(chain_p)
            x_p = solve_dag(chain_p, structure_p, numer[:, p], boundary)
            assert np.array_equal(x[:, :, p], x_p), f"point {p} diverged"

    def test_explicit_zeros_match_pruned_chain(self):
        rng = np.random.default_rng(11)
        chain = _random_dag_chain(rng, n=30, density=0.3)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n = chain.num_states

        values = R.data.copy()
        values[rng.random(values.size) < 0.3] = 0.0  # rate-disabled edges
        numer = np.ones((n, 1, 1))
        boundary = np.zeros((n, 1))

        x = solve_dag_batch(
            shared, _slot_major(values[None, :]), numer.transpose(2, 0, 1), boundary
        )[:, :, 0]
        import scipy.sparse as sp

        pruned = CTMC(
            sp.csr_matrix(
                (values, R.indices.copy(), R.indptr.copy()), shape=R.shape
            )
        )  # CTMC prunes the explicit zeros
        x_p = solve_dag(
            pruned, topological_levels(pruned), numer[:, 0], boundary
        )
        assert np.array_equal(x[:, 0], x_p[:, 0])

    def test_row_sums_match_pruned_out_rates(self):
        # The batched out-rates must equal scipy's row sums over the
        # zero-pruned chain exactly, including
        # rows wider than numpy's 8-way pairwise block and zeros in a
        # row's first slot.
        import scipy.sparse as sp

        rng = np.random.default_rng(29)
        widest, first_slot_zeros = 0, 0
        for _ in range(200):
            n = int(rng.integers(2, 40))
            transitions = []
            for src in range(1, n):
                width = int(rng.integers(0, min(src, 26) + 1))
                for dst in rng.choice(src, size=width, replace=False):
                    transitions.append((src, int(dst), float(rng.uniform(0.1, 5.0))))
            R = CTMC.from_transitions(n, transitions).rates
            shared = batch_dag_structure(R.indptr, R.indices)
            values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=3)])
            values[rng.random(values.shape) < 0.2] = 0.0
            q = _sweep_out_rates(shared, values)
            for p in range(values.shape[0]):
                pruned = CTMC(
                    sp.csr_matrix(
                        (values[p], R.indices.copy(), R.indptr.copy()), shape=R.shape
                    )
                )
                assert q[p].tobytes() == pruned.out_rates.tobytes()
            deg = np.diff(R.indptr)
            widest = max(widest, int(deg.max()))
            firsts = R.indptr[:-1][deg > 0]
            first_slot_zeros += int((values[:, firsts] == 0.0).sum())
        assert widest > 8 and first_slot_zeros > 0

    def test_cyclic_pattern_rejected(self):
        cyclic = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        R = cyclic.rates
        with pytest.raises(SolverError, match="cyclic"):
            batch_dag_structure(R.indptr, R.indices)

    def test_shape_validation(self):
        chain = _random_dag_chain(np.random.default_rng(3), n=10)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        good_vals = _slot_major(R.data[None, :])
        with pytest.raises(SolverError, match="values"):
            solve_dag_batch(
                shared, _slot_major(R.data[None, :-1]), [np.ones((10, 1))],
                np.zeros((10, 1)),
            )
        with pytest.raises(SolverError, match="numerators"):
            solve_dag_batch(shared, good_vals, [np.ones((9, 1))], np.zeros((10, 1)))
        with pytest.raises(SolverError, match="boundary"):
            solve_dag_batch(shared, good_vals, [np.ones((10, 1))], np.zeros((9, 1)))
        bad_sentinel = good_vals.copy()
        bad_sentinel[-1] = 1.0
        with pytest.raises(SolverError, match="sentinel"):
            solve_dag_batch(shared, bad_sentinel, [1.0], np.zeros((10, 1)))

    def test_zero_points(self):
        chain = _random_dag_chain(np.random.default_rng(3), n=10)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        rates = np.zeros((R.nnz + 1, 0))
        x = solve_dag_batch(shared, rates, [1.0, np.ones((10, 0))], np.zeros((10, 2)))
        assert x.shape == (10, 2, 0)

    @pytest.mark.parametrize("column", [5, -1])
    def test_out_of_range_column_rejected(self, column):
        # Three states; state 1's only edge points outside [0, 3).
        with pytest.raises(SolverError, match="out of range"):
            batch_dag_structure(np.array([0, 1, 2, 2]), np.array([2, column]))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_invalid_rates_rejected(self, rate):
        chain = _random_dag_chain(np.random.default_rng(3), n=10)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        values = np.stack([R.data, R.data])
        values[1, 0] = rate
        with pytest.raises(ParameterError, match="finite and non-negative"):
            solve_dag_batch(
                shared, _slot_major(values), [np.ones((10, 2))], np.zeros((10, 1))
            )


# ---------------------------------------------------------------------------
# Fused level sweep on the lattice: differential tests against per-point
# ---------------------------------------------------------------------------

def _per_point_solve(shared, values_row, numerators, boundary):
    """Per-point ``solve_dag`` on one fill's (zero-pruned) chain."""
    import scipy.sparse as sp

    n = shared.num_states
    chain = CTMC(
        sp.csr_matrix(
            (values_row, shared.indices.copy(), shared.indptr.copy()), shape=(n, n)
        )
    )
    return solve_dag(chain, topological_levels(chain), numerators, boundary)


class TestFusedGatherKernel:
    """The batched sweep must equal the per-point oracle bit-for-bit."""

    def _lattice_fills(self, scenarios):
        from repro.core.rates import GCSRates

        structure = lattice_structure(scenarios[0].num_nodes)
        values = np.stack(
            [
                fill_transition_rates(
                    structure,
                    GCSRates.from_scenario(p, resolve_network(p, None)),
                ).values
                for p in scenarios
            ]
        )
        return structure, values

    @pytest.mark.parametrize("grid", ["fig2", "fig4"])
    def test_fused_bit_identical_on_paper_grids(self, grid):
        # Each point's oracle is per-point solve_dag on its own
        # solve-space chain, CTMC(csr_matrix((values[p], indices, indptr))).
        scenarios = _fig2_scenarios() if grid == "fig2" else _fig4_scenarios()
        structure, values = self._lattice_fills(scenarios)
        n = structure.solve_states.size
        numer = np.ones((n, len(scenarios), 1))
        boundary = np.zeros((n, 1))
        boundary[structure.solve_classes()["c1_data_leak"], 0] = 1.0
        x = solve_dag_batch(
            structure.dag, _slot_major(values), numer.transpose(2, 0, 1), boundary
        )
        for p in range(len(scenarios)):
            x_p = _per_point_solve(structure.dag, values[p], numer[:, p], boundary)
            assert np.array_equal(x[:, :, p], x_p), f"{grid} point {p} diverged"

    def test_sweep_matches_per_point_solve_dag(self):
        rng = np.random.default_rng(23)
        chain = _random_dag_chain(rng, n=35, density=0.25)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n, k, P = chain.num_states, 2, 4
        values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
        values[0, rng.random(values.shape[1]) < 0.2] = 0.0  # zero-pruned point
        numer = rng.uniform(0.0, 1.0, size=(n, P, k))
        boundary = np.zeros((n, k))
        boundary[chain.absorbing_states, 0] = 1.0

        x = solve_dag_batch(
            shared, _slot_major(values), numer.transpose(2, 0, 1), boundary
        )
        for p in range(P):
            x_p = _per_point_solve(shared, values[p], numer[:, p], boundary)
            assert np.array_equal(x[:, :, p], x_p), f"point {p} diverged"

    @pytest.mark.parametrize("variance", [False, True])
    @pytest.mark.parametrize("grid", ["fig2", "fig4"])
    def test_solve_space_sweep_matches_full_lattice(self, grid, variance):
        # The solve space drops only states no trajectory from the
        # initial marking enters; at every state it keeps, the sweep
        # must equal the full-lattice sweep byte for byte.
        scenarios = _fig2_scenarios() if grid == "fig2" else _fig4_scenarios()
        structure, values = self._lattice_fills(scenarios)
        full = batch_dag_structure(structure.indptr, structure.indices)
        solve = structure.solve_states
        P, n = len(scenarios), structure.num_states
        rng = np.random.default_rng(31)
        numer = np.ones((n, P, 5))
        numer[:, :, 1] = rng.uniform(0.0, 1e6, size=(n, P))
        boundary = np.zeros((n, 5))
        boundary[structure.c1_state, 2] = 1.0
        boundary[structure.c2_states, 3] = 1.0
        boundary[structure.depletion_states, 4] = 1.0
        rates = _slot_major(values)
        numer = numer.transpose(2, 0, 1)
        x_full = solve_dag_batch(full, rates, numer, boundary)
        x = solve_dag_batch(structure.dag, rates, numer[:, solve], boundary[solve])
        assert x.tobytes() == x_full[solve].tobytes()
        if variance:
            m2_full = solve_dag_batch(
                full, rates, [2.0 * x_full[:, 0]], np.zeros((n, 1))
            )
            m2 = solve_dag_batch(
                structure.dag, rates, [2.0 * x[:, 0]], np.zeros((solve.size, 1))
            )
            assert m2.tobytes() == m2_full[solve].tobytes()

    def test_sweep_working_set(self):
        # A chunk's rates are written once, into the sweep's slot-major
        # (nnz + 1, P) buffer, and the sweep keeps x and the reward
        # numerators point-innermost on the solve space: 8 bytes per
        # float, per point nnz + 1 + n·(k + 1) with k = 5 columns and
        # one reward. Peak of the whole chunk pipeline, prepare and
        # packaging included, over the 36-point fig2 grid; stacked
        # per-point fills or a transposed copy of the rates would each
        # add ~0.16 MB to the 0.41 MB per point.
        import tracemalloc

        scenarios = _fig2_scenarios_at(40)
        evaluate_batch_outcomes(scenarios)  # structure and tables cached
        dag = lattice_structure(40).dag
        P, n, k = len(scenarios), dag.num_states, 5
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcomes = evaluate_batch_outcomes(scenarios)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(error is None for _, error in outcomes)
        assert peak <= 1.25 * 8 * P * (dag.nnz + 1 + n * (k + 1))


def _reference_row_sums(shared, values):
    """``(P, n)`` pruned out-rates of ``(P, nnz)`` fills: the point-major
    ``reduceat`` the sweep used before it read them from its ELL gathers."""
    P, n = values.shape[0], shared.num_states
    q = np.zeros((P, n))
    if shared.nnz == 0:
        return q
    deg = np.diff(shared.indptr)
    slot_rows = np.repeat(np.arange(n), deg)
    nonempty = deg > 0
    q[:, nonempty] = np.add.reduceat(values, shared.indptr[:-1][nonempty], axis=1)
    zeros = np.flatnonzero(values == 0.0)
    if zeros.size == 0:
        return q
    zero_points, zero_slots = np.divmod(zeros, shared.nnz)
    pairs = np.unique(zero_points * n + slot_rows[zero_slots])
    points, rows = np.divmod(pairs, n)
    lens = deg[rows]
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    slots = np.repeat(shared.indptr[rows], lens) + (np.arange(lens.sum()) - offsets)
    gathered = values[np.repeat(points, lens), slots]
    keep = gathered != 0.0
    kept_lens = np.bincount(
        np.repeat(np.arange(pairs.size), lens)[keep], minlength=pairs.size
    )
    sums = np.zeros(pairs.size)
    stored = kept_lens > 0
    if stored.any():
        starts = (np.cumsum(kept_lens) - kept_lens)[stored]
        sums[stored] = np.add.reduceat(gathered[keep], starts)
    q[points, rows] = sums
    return q


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_sweep_out_rates_match_row_sums(seed):
    """The sweep's out-rates == the pruned ``reduceat`` row sums, bitwise.

    The cases where ``e₀ + ((e₁ + e₂) + …)`` over an ELL row is wrong
    all occur: explicit zeros in any slot, the first included, rows of
    9 or more slots (numpy's pairwise grouping), all-zero rows, and
    magnitudes far enough apart that the grouping shows in the last bit.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    transitions = []
    for src in range(1, n):
        width = int(rng.integers(0, min(src, 14) + 1))
        for dst in rng.choice(src, size=width, replace=False):
            rate = float(rng.uniform(0.5, 2.0) * 10.0 ** rng.integers(-17, 1))
            transitions.append((src, int(dst), rate))
    R = CTMC.from_transitions(n, transitions).rates
    if R.nnz == 0:
        return
    shared = batch_dag_structure(R.indptr, R.indices)
    P = 3
    values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
    values[rng.random(values.shape) < 0.25] = 0.0
    deg = np.diff(R.indptr)
    values[0, R.indptr[:-1][deg > 0]] = 0.0  # every row's first slot
    values[1, R.indptr[int(np.argmax(deg))] : R.indptr[int(np.argmax(deg)) + 1]] = 0.0
    q = _sweep_out_rates(shared, values)
    assert q.tobytes() == _reference_row_sums(shared, values).tobytes()
    for p in range(P):
        pruned = CTMC(
            sp.csr_matrix((values[p], R.indices.copy(), R.indptr.copy()), shape=R.shape)
        )
        assert q[p].tobytes() == pruned.out_rates.tobytes()


@pytest.mark.parametrize(
    "row",
    [[0.0, 1.0, 1e-16, 1e-16], [1e-3, 1.0] + [1e-16] * 7],
    ids=["zero-first-slot", "nine-slots"],
)
def test_sweep_out_rates_where_the_plain_row_sum_is_wrong(row):
    # The plain ELL sum e₀ + ((e₁ + e₂) + …) misses the pruned first
    # entry (1.0, not 1 + 2e-16) and numpy's pairwise grouping of 8 or
    # more terms (1.001, not 1.001 + 6e-16).
    width = len(row)
    R = CTMC.from_transitions(
        width + 1, [(width, dst, 1.0) for dst in range(width)]
    ).rates
    shared = batch_dag_structure(R.indptr, R.indices)
    values = np.array([row])
    q = _sweep_out_rates(shared, values)
    assert q.tobytes() == _reference_row_sums(shared, values).tobytes()
    assert q[0, width] != row[0] + sum(row[1:])


def _reference_levels(indptr, indices):
    """Longest-path levels by the Kahn loop that subtracts a full
    ``bincount(preds, minlength=n)`` at every wave."""
    n = indptr.size - 1
    deg = np.diff(indptr)
    rows_of_slot = np.repeat(np.arange(n, dtype=np.int64), deg)
    pred_rows = rows_of_slot[np.argsort(indices, kind="stable")]
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=pred_indptr[1:])
    remaining = deg.copy()
    levels = np.zeros(n, dtype=np.int64)
    current = np.flatnonzero(remaining == 0)
    level = 0
    while True:
        starts = pred_indptr[current]
        lens = pred_indptr[current + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        preds = pred_rows[np.repeat(starts, lens) + (np.arange(total) - offsets)]
        level += 1
        levels[preds] = level
        remaining -= np.bincount(preds, minlength=n)
        candidates = np.unique(preds)
        current = candidates[remaining[candidates] == 0]
    return levels


@pytest.mark.parametrize("num_nodes", [*range(1, 13), 40])
def test_kahn_schedule_matches_full_bincount_loop(num_nodes):
    # The waves subtract each predecessor's count at the candidates
    # only; levels and the whole level schedule must not move.
    pattern = lattice_structure(num_nodes).dag
    shared = batch_dag_structure(pattern.indptr, pattern.indices)
    levels = _reference_levels(pattern.indptr, pattern.indices)
    assert np.array_equal(shared.structure.levels, levels)
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(levels.max() + 2))
    assert np.array_equal(shared.lvl_row_bounds, bounds)
    for L, states in enumerate(shared.structure.level_states):
        assert np.array_equal(states, order[bounds[L] : bounds[L + 1]])
    deg = np.diff(pattern.indptr)
    slots = np.full((deg.size, max(int(deg.max()), 1)), pattern.nnz)
    for state in range(deg.size):
        slots[state, : deg[state]] = np.arange(
            pattern.indptr[state], pattern.indptr[state + 1]
        )
    assert np.array_equal(shared.lvl_ell_slots, slots[order])
    assert np.array_equal(
        shared.lvl_ell_cols,
        np.where(slots < pattern.nnz, np.append(pattern.indices, 0)[slots], 0)[order],
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_batch_sweep_matches_per_point_solve_dag(seed):
    """Random DAGs with 20% explicit zeros: batched == per-point, bitwise.

    The boundary carries a value on every state, so a state that a
    point's zeros make absorbing takes its boundary value in both
    solvers — which runs the sweep's non-uniform (per-point absorbing
    set) branch whenever such a state appears. Each case runs with the
    default gather blocks and with one level per block.
    """
    from unittest import mock

    from repro.ctmc import acyclic

    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    chain = _random_dag_chain(rng, n=n, density=0.3)
    R = chain.rates
    if R.nnz == 0:
        return
    shared = batch_dag_structure(R.indptr, R.indices)
    P, k = 3, 2
    values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
    values[rng.random(values.shape) < 0.2] = 0.0
    numer = rng.uniform(0.0, 1.0, size=(n, P, k))
    boundary = rng.uniform(0.0, 1.0, size=(n, P, k))
    for block_bytes in (acyclic._GATHER_BLOCK_BYTES, 1):
        with mock.patch.object(acyclic, "_GATHER_BLOCK_BYTES", block_bytes):
            x = solve_dag_batch(
                shared,
                _slot_major(values),
                numer.transpose(2, 0, 1),
                boundary.transpose(0, 2, 1),
            )
        for p in range(P):
            x_p = _per_point_solve(shared, values[p], numer[:, p], boundary[:, p])
            assert np.array_equal(x[:, :, p], x_p), f"point {p} diverged"


def test_host_probes_for_the_benchmark():
    # perfbench/run.py records both values in every run's host line.
    import importlib.util

    from repro.ctmc.kernels import numba_available, resolve_kernel

    assert resolve_kernel() == "fused"
    assert numba_available() is (importlib.util.find_spec("numba") is not None)


# ---------------------------------------------------------------------------
# evaluate_batch bit-identity on the paper grids
# ---------------------------------------------------------------------------

class TestEvaluateBatchBitIdentical:
    def test_fig2_grid(self):
        scenarios = _fig2_scenarios()
        batch = evaluate_batch(scenarios)
        for scenario, result in zip(scenarios, batch):
            _assert_identical(result, _lattice_oracle(scenario))

    @pytest.mark.parametrize(
        "max_batch_bytes", [DEFAULT_BATCH_BYTES, 1], ids=["default", "1"]
    )
    def test_fig4_grid_with_variance(self, max_batch_bytes):
        # A 1-byte budget solves every point in its own chunk: how the
        # grid is split must not change a bit of any result.
        scenarios = _fig4_scenarios()
        batch = evaluate_batch(
            scenarios, include_variance=True, max_batch_bytes=max_batch_bytes
        )
        for scenario, result in zip(scenarios, batch):
            _assert_identical(
                result,
                _lattice_oracle(scenario, include_variance=True),
                variance=True,
            )

    def test_breakdown_parity(self):
        scenarios = _fig2_scenarios()[:4]
        batch = evaluate_batch(scenarios, include_breakdown=True)
        for scenario, result in zip(scenarios, batch):
            point = _lattice_oracle(scenario, include_breakdown=True)
            _assert_identical(result, point)
            assert dict(result.cost_breakdown) == dict(point.cost_breakdown)

    def test_zero_rate_edges(self):
        # Non-shifted logarithmic detection disables edges at md == 1,
        # exercising the pruned-row-sum path of the batched solver.
        base = GCSParameters.paper_defaults(
            num_nodes=N_TEST, detection_function="logarithmic", shifted_log=False
        )
        scenarios = [
            base.replacing(detection_interval_s=float(tids))
            for tids in (15.0, 60.0, 240.0)
        ]
        for scenario, result in zip(scenarios, evaluate_batch(scenarios)):
            _assert_identical(result, _lattice_oracle(scenario))

    @pytest.mark.parametrize("variance", [False, True])
    @pytest.mark.parametrize("breakdown", [False, True])
    def test_evaluate_is_the_one_point_batch(self, variance, breakdown):
        # evaluate() is evaluate_batch's P = 1 call: alone or among
        # batch mates, a point gets the oracle's bytes.
        scenarios = _fig2_scenarios()[:3]
        options = dict(include_variance=variance, include_breakdown=breakdown)
        batch = evaluate_batch(scenarios, **options)
        for scenario, among in zip(scenarios, batch):
            want = _lattice_oracle(scenario, **options)
            for result in (evaluate(scenario, **options), among):
                _assert_identical(result, want, variance=variance)
                assert result.cost_breakdown == want.cost_breakdown

    def test_degenerate_single_point_batch(self):
        scenario = GCSParameters.small_test()
        (result,) = evaluate_batch([scenario], include_variance=True)
        _assert_identical(
            result, _lattice_oracle(scenario, include_variance=True), variance=True
        )

    def test_empty_batch(self):
        assert evaluate_batch([]) == []

    def test_mixed_group_sizes_keep_input_order(self):
        small = GCSParameters.small_test()
        bigger = GCSParameters.paper_defaults(num_nodes=N_TEST)
        scenarios = [bigger, small, bigger.replacing(num_voters=3), small]
        batch = evaluate_batch(scenarios)
        for scenario, result in zip(scenarios, batch):
            assert result.params == scenario
            _assert_identical(result, _lattice_oracle(scenario))

    def test_network_tuple_scenarios(self):
        params = GCSParameters.small_test()
        network = resolve_network(params, None)
        (explicit,) = evaluate_batch([(params, network)])
        (implicit,) = evaluate_batch([params])
        _assert_identical(explicit, implicit)

    def test_spn_method_falls_back_per_point(self):
        params = GCSParameters.small_test()
        (batch,) = evaluate_batch([params], method="spn")
        point = evaluate(params, method="spn")
        _assert_identical(batch, point)
        assert batch.solver.startswith("spn/")

    @pytest.mark.parametrize(
        "max_batch_bytes", [DEFAULT_BATCH_BYTES, 1], ids=["default", "1"]
    )
    def test_nan_rate_point_fails_alone(self, monkeypatch, max_batch_bytes):
        # A NaN rate input fails its own point with the fill's
        # ModelError; its chunk mates keep their solo bytes.
        scenarios = _fig2_scenarios()[:5]
        bad = scenarios[2]
        from_scenario = GCSRates.from_scenario

        def nan_attacker(params, network, **kwargs):
            rates = from_scenario(params, network, **kwargs)
            if params is bad:
                object.__setattr__(rates.attacker, "base_rate_hz", float("nan"))
            return rates

        monkeypatch.setattr(GCSRates, "from_scenario", nan_attacker)
        outcomes = evaluate_batch_outcomes(
            scenarios, max_batch_bytes=max_batch_bytes
        )
        monkeypatch.undo()
        for scenario, (result, error) in zip(scenarios, outcomes):
            if scenario is bad:
                assert result is None
                assert isinstance(error, ModelError)
                assert "finite" in str(error)
            else:
                assert error is None
                (solo,) = evaluate_batch([scenario])
                _assert_identical(result, solo)

    def test_per_point_error_capture(self):
        good = GCSParameters.small_test()
        outcomes = evaluate_batch_outcomes([good, "not-a-scenario"])
        assert outcomes[0][1] is None
        _assert_identical(outcomes[0][0], _lattice_oracle(good))
        assert outcomes[1][0] is None
        assert isinstance(outcomes[1][1], ParameterError)
        with pytest.raises(ParameterError, match="batch scenario"):
            evaluate_batch([good, "not-a-scenario"])

    def test_solver_tag(self):
        # Every fast result carries one label, whichever entry point or
        # backend produced it.
        params = GCSParameters.small_test()
        (batched,) = evaluate_batch([params])
        (serial,) = SerialBackend().run(evaluate_request, [EvalRequest(params)])
        for result in (batched, evaluate(params), serial.value):
            assert result.solver == "acyclic-batch"


# ---------------------------------------------------------------------------
# Structure cache
# ---------------------------------------------------------------------------

class TestLatticeStructureCache:
    def test_cached_and_clearable(self):
        clear_structure_cache()
        first = lattice_structure(10)
        assert lattice_structure(10) is first
        clear_structure_cache()
        assert lattice_structure(10) is not first

    def test_structure_backed_chain_matches_historical_fields(self):
        params = GCSParameters.small_test()
        network = resolve_network(params, None)
        lattice = build_lattice_chain(params, network)
        structure = lattice_structure(params.num_nodes)
        assert lattice.num_states == structure.num_states
        assert lattice.initial_state == structure.initial_state
        assert np.array_equal(lattice.t, structure.t)
        # The chain's canonical CSR pattern is exactly the structural
        # pattern minus rate-zero slots.
        fill = fill_transition_rates(
            structure, GCSRates.from_scenario(params, network)
        )
        keep = fill.values > 0.0
        assert np.array_equal(
            lattice.chain.rates.indices, structure.indices[keep]
        )
        assert np.array_equal(lattice.chain.rates.data, fill.values[keep])


# ---------------------------------------------------------------------------
# VectorBackend + engine routing
# ---------------------------------------------------------------------------

def _square(x):  # module level: picklable for pool backends
    return x * x


def _explode_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x


class TestVectorBackend:
    def test_make_backend_spec(self):
        assert isinstance(make_backend("vector"), VectorBackend)
        assert make_backend("vector").describe() == "vector"
        with pytest.raises(ParameterError, match="vector"):
            make_backend("warp")

    def test_model_batch_matches_serial_backend(self):
        requests = [
            EvalRequest(params=p) for p in _fig2_scenarios()[:6]
        ] + [EvalRequest(params=GCSParameters.small_test(), include_variance=True)]
        serial = SerialBackend().run(evaluate_request, requests)
        vector = VectorBackend().run(evaluate_request, requests)
        assert [o.index for o in vector] == [o.index for o in serial]
        for vec, ser in zip(vector, serial):
            assert vec.ok and ser.ok
            _assert_identical(vec.value, ser.value, variance=True)

    def test_generic_callable_falls_back(self):
        outcomes = VectorBackend().run(_square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        failing = VectorBackend().run(_explode_on_two, [1, 2, 3])
        assert [o.ok for o in failing] == [True, False, True]
        assert failing[1].error_type == "ValueError"

    def test_empty_batch(self):
        assert VectorBackend().run(evaluate_request, []) == []

    def test_error_capture_in_model_batch(self):
        good = EvalRequest(params=GCSParameters.small_test())
        bad = EvalRequest(
            params=GCSParameters.small_test(), method="no-such-method"
        )
        outcomes = VectorBackend().run(evaluate_request, [good, bad])
        assert outcomes[0].ok
        _assert_identical(
            outcomes[0].value, _lattice_oracle(GCSParameters.small_test())
        )
        assert not outcomes[1].ok
        assert outcomes[1].error_type == "ParameterError"
        # Parity: the serial backend captures the same failure.
        serial = SerialBackend().run(evaluate_request, [good, bad])
        assert not serial[1].ok
        assert serial[1].error_type == outcomes[1].error_type

    def test_batch_runner_composition(self):
        runner = BatchRunner(backend=VectorBackend())
        requests = [EvalRequest(params=p) for p in _fig2_scenarios()[:4]]
        batch = runner.run(requests + requests)  # duplicates dedup
        batch.report.raise_on_error()
        assert batch.report.n_unique == 4
        assert batch.report.n_evaluated == 4
        for request, result in zip(requests, batch.results[:4]):
            _assert_identical(result, _lattice_oracle(request.params))


class TestModelCacheParityAcrossBackends:
    """serial, vector and vector:N must be cache-indistinguishable."""

    GRID = [
        EvalRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=float(tids)
            )
        )
        for m in (3, 5)
        for tids in (15.0, 60.0, 240.0)
    ]

    def _cold_then_warm(self, tmp_path, cold_jobs, warm_jobs):
        cache_dir = tmp_path / f"{cold_jobs}-then-{warm_jobs}"
        stats = []
        results = []
        for jobs in (cold_jobs, warm_jobs):
            runner = BatchRunner(
                cache=ResultCache(cache_dir=cache_dir),
                backend=make_backend(jobs),
            )
            batch = runner.run(self.GRID)
            batch.report.raise_on_error()
            stats.append((batch.report.n_cache_hits, batch.report.n_evaluated))
            results.append([r.mttsf_s for r in batch.results])
        return stats, results

    def test_hit_miss_parity_both_orders(self, tmp_path):
        # One point at a time, the batched solver and its pool fan-out,
        # every pair cold-then-warm in both orders.
        legs = ("serial", "vector", "vector:2")
        runs = [
            self._cold_then_warm(tmp_path, cold, warm)
            for cold, warm in itertools.permutations(legs, 2)
        ]
        # Same hit/miss profile regardless of which backend ran first:
        # cold run all misses, warm run served entirely by the other
        # backend's records (same content-addressed keys).
        for stats, _ in runs:
            assert stats == [(0, len(self.GRID)), (len(self.GRID), 0)]
        # And every combination produced identical numbers.
        values = [mttsf for _, results in runs for mttsf in results]
        assert all(v == values[0] for v in values)


# ---------------------------------------------------------------------------
# tradeoff_curve / optimize_tids / SweepJob routing
# ---------------------------------------------------------------------------

class TestSweepRouting:
    GRID = (15.0, 60.0, 240.0, 960.0)

    def test_tradeoff_curve_progress_in_grid_order(self, monkeypatch):
        # One batched solve for the whole grid; progress then sees every
        # point once, in grid order, with the oracle's bytes.
        from repro.core import optimizer

        calls = []
        batch = optimizer.evaluate_batch

        def counted(scenarios, **kwargs):
            calls.append(len(scenarios))
            return batch(scenarios, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate_batch", counted)
        seen = []
        curve = tradeoff_curve(
            GCSParameters.small_test(), self.GRID, progress=seen.append
        )
        assert calls == [len(self.GRID)]
        assert seen == curve
        assert [p.tids_s for p in curve] == list(self.GRID)
        for point in curve:
            _assert_identical(point.result, _lattice_oracle(point.result.params))

    def test_sweep_job_vector_parity(self):
        job = SweepJob(
            name="parity",
            axes={"num_voters": (3, 5), "detection_interval_s": (15.0, 60.0)},
            base={"num_nodes": 12},
        )
        campaign = Campaign(name="parity", jobs=(job,))
        (serial,) = campaign.run(make_runner("serial")).outcomes
        (vector,) = campaign.run(make_runner("vector")).outcomes
        assert [a for a, _ in serial.points] == [a for a, _ in vector.points]
        for (_, s), (_, v) in zip(serial.points, vector.points):
            _assert_identical(v, s)
