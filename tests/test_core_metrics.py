"""Evaluation pipeline: solver-path agreement, metrics, breakdowns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scenario, build_lattice_chain, evaluate
from repro.core.metrics import resolve_network
from repro.errors import ParameterError
from repro.manet import NetworkModel
from repro.params import GCSParameters, GroupDynamicsParameters


@pytest.fixture(scope="module")
def params() -> GCSParameters:
    return GCSParameters.small_test()


class TestSolverPathAgreement:
    """The vectorised lattice and the generic SPN must be the same model."""

    def test_default_point(self, params):
        fast = evaluate(params, method="fast")
        spn = evaluate(params, method="spn")
        assert fast.mttsf_s == pytest.approx(spn.mttsf_s, rel=1e-9)
        assert fast.ctotal_hop_bits_s == pytest.approx(spn.ctotal_hop_bits_s, rel=1e-9)
        for key in fast.failure_probabilities:
            assert fast.failure_probabilities[key] == pytest.approx(
                spn.failure_probabilities[key], abs=1e-9
            )

    @pytest.mark.parametrize("attacker", ["logarithmic", "linear", "polynomial"])
    @pytest.mark.parametrize("detection", ["logarithmic", "linear", "polynomial"])
    def test_all_function_combinations(self, params, attacker, detection):
        p = params.replacing(attacker_function=attacker, detection_function=detection)
        fast = evaluate(p, method="fast")
        spn = evaluate(p, method="spn")
        assert fast.mttsf_s == pytest.approx(spn.mttsf_s, rel=1e-9)
        assert fast.ctotal_hop_bits_s == pytest.approx(spn.ctotal_hop_bits_s, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_voter_counts(self, params, m):
        p = params.replacing(num_voters=m)
        fast = evaluate(p, method="fast")
        spn = evaluate(p, method="spn")
        assert fast.mttsf_s == pytest.approx(spn.mttsf_s, rel=1e-9)

    @pytest.mark.parametrize("tids", [5.0, 120.0, 1200.0])
    def test_detection_intervals(self, params, tids):
        p = params.replacing(detection_interval_s=tids)
        fast = evaluate(p, method="fast")
        spn = evaluate(p, method="spn")
        assert fast.mttsf_s == pytest.approx(spn.mttsf_s, rel=1e-9)

    def test_coupled_agrees_in_single_group_limit(self, params):
        p = params.replacing(
            groups=GroupDynamicsParameters(
                partition_rate_hz=1e-15, merge_rate_hz=1.0, max_groups=1
            )
        )
        coupled = evaluate(p, method="spn-coupled")
        fast = evaluate(p, method="fast")
        assert coupled.mttsf_s == pytest.approx(fast.mttsf_s, rel=1e-9)

    def test_coupled_partitions_reduce_mttsf(self, params):
        # Frequent partitioning halves voting pools; the exactly-coupled
        # model must show the extra vulnerability (DESIGN.md §4.4).
        coupled = evaluate(params, method="spn-coupled")
        fast = evaluate(params, method="fast")
        assert coupled.mttsf_s < fast.mttsf_s


from hypothesis import HealthCheck


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(6, 14),
    m=st.sampled_from([1, 3, 5]),
    tids=st.floats(min_value=5.0, max_value=2000.0),
    p_err=st.floats(min_value=0.0, max_value=0.2),
    attacker=st.sampled_from(["logarithmic", "linear", "polynomial"]),
    detection=st.sampled_from(["logarithmic", "linear", "polynomial"]),
)
def test_property_fastpath_equals_spn(n, m, tids, p_err, attacker, detection):
    """Property: the vectorised lattice and the generic SPN agree for
    arbitrary parameter combinations, not just the curated grid."""
    p = GCSParameters.small_test(
        num_nodes=n,
        num_voters=m,
        detection_interval_s=tids,
        host_false_negative=p_err,
        host_false_positive=p_err,
        attacker_function=attacker,
        detection_function=detection,
    )
    fast = evaluate(p, method="fast")
    spn = evaluate(p, method="spn")
    assert fast.mttsf_s == pytest.approx(spn.mttsf_s, rel=1e-8)
    assert fast.ctotal_hop_bits_s == pytest.approx(spn.ctotal_hop_bits_s, rel=1e-8)


class TestLatticeChain:
    def test_metadata(self, params):
        net = NetworkModel.analytic(params.network)
        lattice = build_lattice_chain(params, net)
        n = params.num_nodes
        assert lattice.num_states == (n + 1) * (n + 2) * (n + 3) // 6 + 1
        assert lattice.state_of(n, 0, 0) == lattice.initial_state
        assert lattice.c1_state == lattice.num_states - 1
        with pytest.raises(ParameterError):
            lattice.state_of(n, 1, 0)  # outside the simplex

    def test_absorbing_classes_disjoint(self, params):
        net = NetworkModel.analytic(params.network)
        lattice = build_lattice_chain(params, net)
        classes = lattice.absorbing_classes()
        all_states = sum(classes.values(), [])
        assert len(all_states) == len(set(all_states))

    def test_chain_is_dag(self, params):
        from repro.ctmc import topological_levels

        net = NetworkModel.analytic(params.network)
        lattice = build_lattice_chain(params, net)
        assert topological_levels(lattice.chain) is not None


class TestEvaluateOutputs:
    def test_failure_probabilities_sum_to_one(self, params):
        r = evaluate(params)
        assert sum(r.failure_probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_breakdown_sums_to_total(self, params):
        r = evaluate(params, include_breakdown=True)
        parts = {k: v for k, v in r.cost_breakdown.items() if k != "total"}
        assert sum(parts.values()) == pytest.approx(r.ctotal_hop_bits_s, rel=1e-9)
        assert r.cost_breakdown["total"] == pytest.approx(r.ctotal_hop_bits_s)

    def test_breakdown_unsupported_on_spn_path(self, params):
        with pytest.raises(ParameterError):
            evaluate(params, method="spn", include_breakdown=True)

    @pytest.mark.parametrize("option", ["include_breakdown", "include_variance"])
    def test_spn_options_refused_before_any_build(self, params, monkeypatch, option):
        import repro.core.metrics as metrics

        def built(*args, **kwargs):
            raise AssertionError("the SPN was built before the option check")

        monkeypatch.setattr(metrics, "build_gcs_spn", built)
        monkeypatch.setattr(metrics, "analyze_spn", built)
        with pytest.raises(ParameterError, match=option):
            evaluate(params, method="spn", **{option: True})

    def test_result_helpers(self, params):
        r = evaluate(params)
        assert r.mttsf_hours == pytest.approx(r.mttsf_s / 3600)
        assert r.mttsf_days == pytest.approx(r.mttsf_s / 86400)
        assert r.dominant_failure_mode in r.failure_probabilities
        assert r.meets_mission_time(1.0)
        assert not r.meets_mission_time(1e12)
        assert "MTTSF" in r.summary()
        d = r.to_dict()
        assert d["mttsf_s"] == r.mttsf_s

    def test_unknown_method(self, params):
        with pytest.raises(ParameterError):
            evaluate(params, method="warp")

    def test_channel_utilization_consistent(self, params):
        r = evaluate(params)
        assert r.channel_utilization == pytest.approx(
            r.ctotal_hop_bits_s / params.network.bandwidth_bps
        )


class TestResolveNetwork:
    def test_explicit_network_wins(self, params):
        net = NetworkModel.analytic(params.network)
        assert resolve_network(params, net) is net

    def test_explicit_rates_graft(self, params):
        net = resolve_network(params)
        assert net.partition_rate_hz == params.groups.partition_rate_hz
        assert net.merge_rate_hz == params.groups.merge_rate_hz

    def test_analytic_fallback(self):
        p = GCSParameters.paper_defaults()
        net = resolve_network(p)
        assert not net.measured

    def test_mobility_path(self):
        p = GCSParameters.paper_defaults(
            num_nodes=12, radius_m=250.0
        )
        net = resolve_network(p, use_mobility=True, mobility_duration_s=30.0, seed=1)
        assert net.measured


class TestScenario:
    def test_overrides_do_not_mutate(self, params):
        sc = Scenario(params)
        r1 = sc.evaluate()
        r2 = sc.evaluate(detection_interval_s=300.0)
        assert sc.params.tids_s == params.tids_s
        assert r1.params.tids_s != r2.params.tids_s

    def test_with_params_shares_network(self, params):
        sc = Scenario(params)
        sib = sc.with_params(num_voters=7)
        assert sib.network is sc.network
        assert sib.params.num_voters == 7

    def test_sweep_returns_points_in_grid_order(self, params):
        sc = Scenario(params)
        pts = sc.sweep_tids([30.0, 60.0, 120.0])
        assert [p.tids_s for p in pts] == [30.0, 60.0, 120.0]
        assert all(p.mttsf_s > 0 for p in pts)

    def test_describe(self, params):
        assert "Scenario(" in Scenario(params).describe()


class TestStructuralBehaviour:
    """Directional sanity: knobs move the metrics the right way."""

    def test_slower_attacker_lives_longer(self, params):
        fast_attack = evaluate(params.replacing(base_compromise_rate_hz=1e-4))
        slow_attack = evaluate(params.replacing(base_compromise_rate_hz=1e-6))
        assert slow_attack.mttsf_s > fast_attack.mttsf_s

    def test_better_host_ids_lives_longer(self, params):
        good = evaluate(params.replacing(host_false_negative=0.001, host_false_positive=0.001))
        bad = evaluate(params.replacing(host_false_negative=0.05, host_false_positive=0.05))
        assert good.mttsf_s > bad.mttsf_s

    def test_leak_channel_dominates_with_slow_detection(self, params):
        r = evaluate(params.replacing(detection_interval_s=4000.0))
        assert r.failure_probabilities["c1_data_leak"] > 0.3

    def test_bigger_group_costs_more(self, params):
        small = evaluate(params)
        big = evaluate(params.replacing(num_nodes=24))
        assert big.ctotal_hop_bits_s > small.ctotal_hop_bits_s
