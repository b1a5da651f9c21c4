"""The collapsed per-point prepare equals the full-lattice arithmetic.

:func:`repro.core.fastpath.fill_transition_rates` evaluates the rate
formulas once per ``(t, u)`` pair (``rk`` once per member count
``t + u + d``) and gathers them into the CSR slots, and
:func:`repro.core.fastpath.lattice_state_costs` runs the cost model on
the pairs and gathers back to states. Both must be **byte for byte**
what evaluating every lattice state gives: the reference below is the
full-lattice fill as it stood before the collapse, and the cost
reference is ``cost_vector`` over the state arrays themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import (
    _KINDS,
    fill_transition_rates,
    lattice_state_costs,
    lattice_structure,
)
from repro.core.metrics import resolve_network
from repro.core.rates import GCSRates
from repro.costs.aggregate import GCSCostModel
from repro.ctmc.birth_death import BirthDeathProcess
from repro.detection.functions import vector_shape_factor
from repro.params import GCSParameters

FORMS = ("logarithmic", "linear", "polynomial")


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
    values = np.zeros(structure.nnz, dtype=float)
    for kind in _KINDS:
        values[structure.slots[kind]] = per_state[kind][structure.masks[kind]]
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


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_index_space_invariants(n):
    s = lattice_structure(n)
    assert np.array_equal(s.pair_t[s.pair_of_state], s.t)
    assert np.array_equal(s.pair_u[s.pair_of_state], s.u)
    # Every (t, u) with t + u <= n exactly once.
    assert s.pair_t.size == (n + 1) * (n + 2) // 2
    assert len(set(zip(s.pair_t.tolist(), s.pair_u.tolist()))) == s.pair_t.size
    # The gather covers the four pair blocks plus n + 1 member counts.
    assert s.rate_gather.shape == (s.nnz,)
    assert 0 <= s.rate_gather.min()
    assert s.rate_gather.max() < 4 * s.pair_t.size + n + 1
    for arr in (s.pair_t, s.pair_u, s.pair_of_state, s.rate_gather):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_index_space_sizes_at_paper_scale():
    s = lattice_structure(100)
    assert s.n_lattice == 176_851
    assert s.pair_t.size == 5_151
    assert s.rate_gather.max() < 4 * 5_151 + 101
