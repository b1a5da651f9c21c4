"""Optimal-TIDS search and tradeoff curves."""

import pytest

from repro.core import Scenario, optimize_tids, tradeoff_curve
from repro.errors import ParameterError
from repro.params import GCSParameters

GRID = [15.0, 60.0, 240.0, 960.0]


@pytest.fixture(scope="module")
def params() -> GCSParameters:
    return GCSParameters.small_test()


@pytest.fixture(scope="module")
def curve(params):
    return tradeoff_curve(params, GRID)


class TestTradeoffCurve:
    def test_one_point_per_grid_entry(self, curve):
        assert [p.tids_s for p in curve] == GRID

    def test_points_carry_results(self, curve):
        for p in curve:
            assert p.mttsf_s > 0
            assert p.ctotal_hop_bits_s > 0
            assert p.result.params.tids_s == p.tids_s

    def test_grid_must_be_increasing(self, params):
        with pytest.raises(ParameterError):
            tradeoff_curve(params, [60.0, 30.0])
        with pytest.raises(ParameterError):
            tradeoff_curve(params, [])

    def test_progress_callback(self, params):
        seen = []
        tradeoff_curve(params, [30.0, 60.0], progress=seen.append)
        assert [p.tids_s for p in seen] == [30.0, 60.0]


class TestOptimizeTids:
    def test_max_mttsf_picks_argmax(self, params, curve):
        out = optimize_tids(params, GRID, objective="max-mttsf")
        best_ref = max(curve, key=lambda p: p.mttsf_s)
        assert out.optimal_tids_s == best_ref.tids_s
        assert out.feasible

    def test_min_ctotal_picks_argmin(self, params, curve):
        out = optimize_tids(params, GRID, objective="min-ctotal")
        best_ref = min(curve, key=lambda p: p.ctotal_hop_bits_s)
        assert out.optimal_tids_s == best_ref.tids_s

    def test_cost_ceiling_restricts(self, params, curve):
        # Set the ceiling between min and max cost: some points excluded.
        costs = sorted(p.ctotal_hop_bits_s for p in curve)
        ceiling = (costs[0] + costs[-1]) / 2
        out = optimize_tids(
            params, GRID, objective="max-mttsf", cost_ceiling_hop_bits_s=ceiling
        )
        assert out.feasible
        assert out.best.ctotal_hop_bits_s <= ceiling
        # The unconstrained optimum may differ; the constrained one must be
        # the best among feasible points.
        feasible = [p for p in curve if p.ctotal_hop_bits_s <= ceiling]
        assert out.best.mttsf_s == max(p.mttsf_s for p in feasible)

    def test_infeasible_ceiling(self, params, curve):
        ceiling = min(p.ctotal_hop_bits_s for p in curve) * 0.5
        out = optimize_tids(
            params, GRID, cost_ceiling_hop_bits_s=ceiling
        )
        assert not out.feasible
        with pytest.raises(ParameterError):
            _ = out.optimal_tids_s
        assert "NO FEASIBLE POINT" in out.summary()

    def test_summary_marks_optimum(self, params):
        out = optimize_tids(params, [30.0, 120.0])
        assert "<== optimal" in out.summary()

    def test_summary_marks_exactly_one_point(self, curve):
        # Stitch two copies of the curve together: several points now
        # share a tids_s with the optimum, so marking by float equality
        # on tids_s would flag duplicates — the marker must go by curve
        # index instead.
        from repro.core.optimizer import select_optimum

        doubled = list(curve) + list(curve)
        out = select_optimum(doubled)
        summary = out.summary()
        assert summary.count("<== optimal") == 1
        marked_line = next(
            line for line in summary.splitlines() if "<== optimal" in line
        )
        lines = summary.splitlines()[1:]  # skip the objective header
        assert lines.index(marked_line) == out.best_index

    def test_best_index_none_when_infeasible(self, curve):
        from repro.core.optimizer import select_optimum

        out = select_optimum(
            curve, objective="max-mttsf", cost_ceiling_hop_bits_s=1e-12
        )
        assert out.best is None
        assert out.best_index is None
        assert "NO FEASIBLE POINT" in out.summary()

    def test_validation(self, params):
        with pytest.raises(ParameterError):
            optimize_tids(params, GRID, objective="max-fun")
        with pytest.raises(ParameterError):
            optimize_tids(params, GRID, cost_ceiling_hop_bits_s=-5.0)
        with pytest.raises(ParameterError):
            optimize_tids(
                params, GRID, objective="min-ctotal", cost_ceiling_hop_bits_s=1.0
            )


class TestScenarioOptimize:
    def test_scenario_wrapper(self, params):
        sc = Scenario(params)
        out = sc.optimize([30.0, 120.0], objective="max-mttsf")
        assert out.feasible
        out2 = sc.optimize([30.0, 120.0], num_voters=7)
        assert out2.best.result.params.num_voters == 7
