"""The collapsed per-point prepare equals the full-lattice arithmetic.

:func:`repro.core.fastpath.fill_transition_rates` evaluates the rate
formulas once per ``(t, u)`` pair (``rk`` once per member count
``t + u + d``) and gathers them into the CSR slots, and
:func:`repro.core.fastpath.lattice_state_costs` runs the cost model on
the pairs and gathers back to states. Both must be **byte for byte**
what evaluating every lattice state gives: the reference below is the
full-lattice fill as it stood before the collapse, with its own copy of
the guard block, and the cost reference is ``cost_vector`` over the
state arrays themselves.

The structure's index spaces are pinned too, including the solve space
(the states reachable from the initial marking, where the batched
solvers run), and at ``N <= 2`` — where C1 lies outside it — the batched
paths must still agree with the per-point ones.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import (
    _KINDS,
    _TCM_TABLES,
    build_lattice_chain,
    clear_structure_cache,
    fill_transition_rates,
    lattice_state_costs,
    lattice_structure,
)
from repro.core.metrics import (
    evaluate_batch,
    evaluate_survivability,
    evaluate_survivability_batch,
    resolve_network,
)
from repro.core.rates import GCSRates
from repro.costs.aggregate import GCSCostModel
from repro.ctmc.birth_death import BirthDeathProcess
from repro.ctmc.transient import BATCH_EQUIVALENCE_RTOL, absorption_cdf
from repro.detection.functions import vector_shape_factor
from repro.params import GCSParameters
from repro.voting.majority import _table_cached, clear_table_cache
from test_batch_solver import _lattice_oracle
from test_transient_batch import _assert_curves_equal

FORMS = ("logarithmic", "linear", "polynomial")


def _guard_masks_and_slots(structure):
    """Per kind: the guard mask over lattice states and the CSR slot of
    each enabled transition, located in the structure's sparsity pattern.
    """
    n, ns = structure.num_nodes, structure.num_states
    t, u, d = structure.t, structure.u, structure.d
    sid = structure.state_id
    active = ~((u > 0) & (2 * u > t))
    masks = {
        "cp": active & (t > 0),
        "drq": active & (u > 0),
        "ids": active & (u > 0),
        "fa": active & (t > 0),
        "rk": active & (d > 0),
    }
    dst = {
        "cp": sid[t - 1, np.minimum(u + 1, n), d],
        "drq": np.full(t.size, structure.c1_state, dtype=np.int64),
        "ids": sid[t, np.maximum(u - 1, 0), np.minimum(d + 1, n)],
        "fa": sid[np.maximum(t - 1, 0), u, np.minimum(d + 1, n)],
        "rk": sid[t, u, np.maximum(d - 1, 0)],
    }
    # (row, col) keys ascend along a column-sorted CSR pattern.
    rows = np.repeat(np.arange(ns), np.diff(structure.indptr))
    keys = rows * ns + structure.indices
    slots = {}
    for kind in _KINDS:
        want = sid[t, u, d][masks[kind]] * ns + dst[kind][masks[kind]]
        slots[kind] = np.searchsorted(keys, want)
        assert np.array_equal(keys[slots[kind]], want), kind
    # Every pattern slot is exactly one guard-enabled transition.
    covered = np.sort(np.concatenate(list(slots.values())))
    assert np.array_equal(covered, np.arange(structure.nnz))
    return masks, slots


def _full_lattice_fill(structure, rates):
    """The rate fill evaluated on every lattice state (pre-collapse)."""
    n = structure.num_nodes
    t_all, u_all, d_all = structure.t, structure.u, structure.d
    scale = rates.group_scale

    att = rates.attacker
    det = rates.detection
    live = t_all + u_all
    with np.errstate(divide="ignore", invalid="ignore"):
        mc = np.where(t_all > 0, live / np.maximum(t_all, 1), 1.0)
        md = np.where(live > 0, n / np.maximum(live, 1), 1.0)
    a_rate = att.base_rate_hz * vector_shape_factor(
        att.form, mc, att.base_index_p, att.shifted_log
    )
    d_rate = (
        vector_shape_factor(det.form, md, det.base_index_p, det.shifted_log)
        / det.base_interval_s
    )

    pfp_table, pfn_table = rates.voting.table(2 * n)
    tg = np.clip(np.rint(t_all * scale).astype(np.int64), 0, n)
    ug = np.clip(np.rint(u_all * scale).astype(np.int64), 0, n)
    pfn = pfn_table[tg, np.maximum(ug, 1)]
    pfp = pfp_table[np.maximum(tg, 1), ug]

    tcm = np.array([rates.rekey.tcm_s(max(k, 2)) for k in range(n + 2)])
    members = np.clip(
        np.rint((t_all + u_all + d_all) * scale).astype(np.int64), 0, n + 1
    )
    rk_rate = 1.0 / tcm[members]

    leak_rate = (
        rates.params.detection.host_false_negative
        * rates.params.workload.data_rate_hz
        * u_all
    )

    per_state = {
        "cp": a_rate,
        "drq": leak_rate,
        "ids": u_all * d_rate * (1.0 - pfn),
        "fa": t_all * d_rate * pfp,
        "rk": rk_rate,
    }
    masks, slots = _guard_masks_and_slots(structure)
    values = np.zeros(structure.nnz, dtype=float)
    for kind in _KINDS:
        values[slots[kind]] = per_state[kind][masks[kind]]
    return values


@st.composite
def scenarios(draw):
    """Small-N scenarios over every attacker/detection form."""
    partition = draw(st.sampled_from((0.0, 1.0 / 3600.0, 5e-3, 0.2)))
    return GCSParameters.small_test(
        num_nodes=draw(st.integers(1, 12)),
        attacker_function=draw(st.sampled_from(FORMS)),
        detection_function=draw(st.sampled_from(FORMS)),
        shifted_log=draw(st.booleans()),
        num_voters=draw(st.sampled_from((1, 3, 5, 7, 9))),
        detection_interval_s=draw(st.floats(1.0, 3600.0)),
        max_groups=draw(st.integers(1, 4)),
        partition_rate_hz=partition,
    )


def _scenario_models(params):
    net = resolve_network(params)
    bd = BirthDeathProcess.for_group_count(
        net.partition_rate_hz, net.merge_rate_hz, params.groups.max_groups
    )
    rates = GCSRates.from_scenario(params, net, expected_groups=bd.mean_level())
    cost_model = GCSCostModel(params, net, ng_distribution=bd.level_distribution())
    return rates, cost_model


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_collapsed_fill_is_byte_identical(params):
    structure = lattice_structure(params.num_nodes)
    rates, _ = _scenario_models(params)
    collapsed = fill_transition_rates(structure, rates).values
    assert collapsed.dtype == np.float64
    assert collapsed.tobytes() == _full_lattice_fill(structure, rates).tobytes()


def test_fill_shares_the_cost_models_voting_tables():
    # The fill reads table(N), the memo entry the cost model fills for
    # the same (m, p1, p2): one table pair per voting model, not two.
    clear_table_cache()
    evaluate_batch([GCSParameters.small_test(num_voters=m) for m in (3, 5)])
    assert _table_cached.cache_info().currsize == 2


def test_tcm_table_is_one_memo_entry_per_rekey_setting():
    # Points that differ in anything but the bandwidth, element size
    # and N share one read-only Tcm table, equal to the per-point list
    # comprehension the fill used to run; clearing the structures drops it.
    clear_structure_cache()
    scenarios = [
        GCSParameters.small_test(num_voters=m, detection_interval_s=tids)
        for m in (3, 5)
        for tids in (15.0, 120.0)
    ]
    evaluate_batch(scenarios)
    assert len(_TCM_TABLES) == 1
    ((key, table),) = _TCM_TABLES.items()
    rekey = _scenario_models(scenarios[0])[0].rekey
    n = scenarios[0].num_nodes
    assert key == (rekey.network.params.bandwidth_bps, rekey.element_bits, n)
    expected = np.array([rekey.tcm_s(max(k, 2)) for k in range(n + 2)])
    assert table.tobytes() == expected.tobytes()
    assert not table.flags.writeable
    clear_structure_cache()
    assert not _TCM_TABLES


@settings(max_examples=60, deadline=None)
@given(params=scenarios())
def test_collapsed_costs_are_byte_identical(params):
    structure = lattice_structure(params.num_nodes)
    _, cost_model = _scenario_models(params)
    t, u, d = structure.t, structure.u, structure.d

    total = lattice_state_costs(structure, cost_model)
    assert total.tobytes() == cost_model.cost_vector(t, u, d).tobytes()

    parts = lattice_state_costs(structure, cost_model, per_component=True)
    expected = cost_model.cost_vector(t, u, d, per_component=True)
    assert list(parts) == list(expected)
    for name, vec in expected.items():
        assert parts[name].tobytes() == vec.tobytes(), name


def _held_arrays(obj, prefix=""):
    """Every array a (nested) structure dataclass holds, by dotted name."""
    held = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        name = prefix + field.name
        if isinstance(value, np.ndarray):
            held[name] = value
        elif isinstance(value, list):
            held.update({f"{name}[{i}]": arr for i, arr in enumerate(value)})
        elif dataclasses.is_dataclass(value):
            held.update(_held_arrays(value, name + "."))
    return held


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_index_space_invariants(n):
    s = lattice_structure(n)
    assert np.array_equal(s.pair_t[s.pair_of_state], s.t)
    assert np.array_equal(s.pair_u[s.pair_of_state], s.u)
    # Every (t, u) with t + u <= n exactly once.
    assert s.pair_t.size == (n + 1) * (n + 2) // 2
    assert len(set(zip(s.pair_t.tolist(), s.pair_u.tolist()))) == s.pair_t.size
    # The gather covers the four pair blocks plus n + 1 member counts;
    # the chunk plan adds the source's trailing 0.0 for the sweep's pads.
    assert s.rate_gather.shape == (s.nnz,)
    assert 0 <= s.rate_gather.min()
    assert s.rate_gather.max() < 4 * s.pair_t.size + n + 1
    assert np.array_equal(s.slot_source[:-1], s.rate_gather)
    assert s.slot_source[-1] == 4 * s.pair_t.size + n + 1
    assert np.array_equal(s.rate_sources, np.unique(s.rate_gather))
    # Each solve-space state's pair; the C1 state reads the zero entry.
    lattice = s.solve_states < s.n_lattice
    assert np.array_equal(
        s.solve_pair[lattice], s.pair_of_state[s.solve_states[lattice]]
    )
    assert np.all(s.solve_pair[~lattice] == s.pair_t.size)
    # The solve space: sorted, unique, holds the initial marking, and is
    # closed — no CSR edge starts or ends outside it, so every state
    # outside has out-degree 0. C1 is reachable only from N = 3 on.
    solve = s.solve_states
    assert np.all(np.diff(solve) > 0)
    assert s.initial_state in solve and solve[s.solve_initial] == s.initial_state
    inside = np.isin(np.arange(s.num_states), solve)
    rows = np.repeat(np.arange(s.num_states), np.diff(s.indptr))
    assert inside[rows].all() and inside[s.indices].all()
    assert np.all(np.diff(s.indptr)[~inside] == 0)
    assert (s.c1_state in solve) == (n >= 3)
    assert s.dag.num_states == solve.size and s.dag.nnz == s.nnz
    # Every array the structure holds is frozen: the instance is shared
    # process-wide, so a write must fail rather than poison later points.
    held = _held_arrays(s)
    dag = "indptr indices lvl_row_bounds lvl_ell_slots lvl_ell_cols".split()
    assert set(held) >= {
        *"t u d state_id c2_states depletion_states indptr indices".split(),
        *"pair_t pair_u pair_of_state rate_gather solve_states".split(),
        *"slot_source rate_sources solve_pair".split(),
        *(f"dag.{name}" for name in dag),
        "dag.structure.levels",
        *(
            f"dag.structure.level_states[{i}]"
            for i in range(len(s.dag.structure.level_states))
        ),
    }
    for name, arr in held.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[...] = 0


def test_index_space_sizes_at_paper_scale():
    s = lattice_structure(100)
    assert s.n_lattice == 176_851
    assert s.pair_t.size == 5_151
    assert s.rate_gather.max() < 4 * 5_151 + 101
    assert s.solve_states.size == 65_741
    assert lattice_structure(40).solve_states.size == 5_231


def _tiny_scenarios(n):
    return [
        GCSParameters.small_test(num_nodes=n, detection_interval_s=tids)
        for tids in (15.0, 120.0, 600.0)
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_lattice_batch_equals_per_point(n):
    # At N <= 2 no trajectory reaches C1, so its boundary row is absent
    # from the solve space; the batched results must not notice.
    scenarios = _tiny_scenarios(n)
    batched = evaluate_batch(scenarios, include_variance=True)
    for params, got in zip(scenarios, batched):
        want = _lattice_oracle(params, include_variance=True)
        assert got.mttsf_s == want.mttsf_s
        assert got.ctotal_hop_bits_s == want.ctotal_hop_bits_s
        assert got.failure_probabilities == want.failure_probabilities
        assert got.mttsf_std_s == want.mttsf_std_s
        assert got.num_states == want.num_states == lattice_structure(n).num_states


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_lattice_survivability_batch_matches(n):
    scenarios = _tiny_scenarios(n)
    times = (0.0, 0.5, 2.0, 5.0)
    batched = evaluate_survivability_batch(scenarios, times=times)
    for params, got in zip(scenarios, batched):
        want = evaluate_survivability(params, times=times)
        _assert_curves_equal(got, want)
        assert list(got.failure_cdf) == list(want.failure_cdf)
        assert got.failure_cdf["c1_data_leak"] == (0.0,) * len(times)


@pytest.mark.parametrize("n", [1, 2, 12])
def test_solve_space_survivability_matches_full_lattice(n):
    # Survivability runs on the solve space on every backend; the
    # full-lattice chain, C1 included at N <= 2, is its reference.
    scenarios = _tiny_scenarios(n)
    times = (0.0, 0.5, 2.0, 5.0)
    close = dict(rtol=BATCH_EQUIVALENCE_RTOL, atol=1e-12)
    batched = evaluate_survivability_batch(scenarios, times=times)
    for params, got in zip(scenarios, batched):
        net = resolve_network(params, None)
        bd = BirthDeathProcess.for_group_count(
            net.partition_rate_hz, net.merge_rate_hz, params.groups.max_groups
        )
        lattice = build_lattice_chain(params, net, expected_groups=bd.mean_level())
        want = absorption_cdf(
            lattice.chain,
            times,
            lattice.initial_state,
            classes=lattice.absorbing_classes(),
        )
        assert set(got.failure_cdf) == set(want)
        for name, cdf in want.items():
            np.testing.assert_allclose(got.failure_cdf[name], cdf, **close)
        np.testing.assert_allclose(got.survival, 1.0 - want["any"], **close)
