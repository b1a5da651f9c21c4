"""Analysis harness: data series, tables, IO, registry."""

import json

import pytest

from repro.analysis import (
    DataSeries,
    ExperimentConfig,
    get_experiment,
    list_experiments,
    render_table,
    run,
    write_experiment_artifacts,
)
from repro.analysis.io import write_series_csv
from repro.analysis.tables import render_series
from repro.errors import ExperimentError, ParameterError


class TestDataSeries:
    def make(self) -> DataSeries:
        return DataSeries.build(
            "demo", "x", [1, 2, 3], "y", {"a": [10.0, 30.0, 20.0], "b": [3, 2, 1]}
        )

    def test_build_coerces_floats(self):
        s = self.make()
        assert s.x == (1.0, 2.0, 3.0)
        assert s.series["a"] == (10.0, 30.0, 20.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            DataSeries.build("bad", "x", [1, 2], "y", {"a": [1.0]})
        with pytest.raises(ParameterError):
            DataSeries.build("bad", "x", [], "y", {})

    def test_argbest(self):
        s = self.make()
        assert s.argbest("a") == (2.0, 30.0)
        assert s.argbest("b", maximize=False) == (3.0, 1.0)
        with pytest.raises(ParameterError):
            s.argbest("zz")

    def test_to_rows_round_trip(self):
        rows = self.make().to_rows()
        assert rows[0] == ["x", "a", "b"]
        assert len(rows) == 4

    def test_to_dict(self):
        d = self.make().to_dict()
        assert d["name"] == "demo"
        assert d["series"]["b"] == [3.0, 2.0, 1.0]


class TestTables:
    def test_render_alignment(self):
        text = render_table([["col", "value"], ["x", "1"], ["longer", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert len(set(len(l) for l in lines)) == 1  # aligned

    def test_ragged_rejected(self):
        with pytest.raises(ParameterError):
            render_table([["a", "b"], ["only-one"]])
        with pytest.raises(ParameterError):
            render_table([])

    def test_render_series(self):
        s = DataSeries.build("demo", "x", [1], "y", {"a": [2.0]})
        out = render_series(s)
        assert "demo" in out and "2.0000e+00" in out


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = {e.id for e in list_experiments()}
        assert {
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "abl-attacker",
            "abl-hostids",
            "abl-coupling",
            "abl-workload",
            "baseline-host",
            "val-sim",
            "scale",
        } <= ids

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_config_defaults(self):
        quick = ExperimentConfig(quick=True)
        full = ExperimentConfig(quick=False)
        assert quick.num_nodes == 40
        assert full.num_nodes == 100
        assert quick.tids_grid[0] == 5

    def test_run_scale_quick(self):
        result = run("scale", quick=True)
        assert result.experiment_id == "scale"
        series = result.series[0]
        assert series.series["states"][0] < series.series["states"][-1]
        assert "N=" in result.notes[0]
        assert "solver_scaling" in result.render()


class TestArtifacts:
    def test_write_series_csv(self, tmp_path):
        s = DataSeries.build("demo", "x", [1, 2], "y", {"a": [1.0, 2.0]})
        path = write_series_csv(s, tmp_path / "sub" / "demo.csv")
        text = path.read_text()
        assert text.splitlines()[0] == "x,a"

    def test_write_experiment_artifacts(self, tmp_path):
        result = run("scale", quick=True)
        paths = write_experiment_artifacts(result, tmp_path)
        names = {p.name for p in paths}
        assert "scale.json" in names
        bundle = json.loads((tmp_path / "scale.json").read_text())
        assert bundle["experiment"] == "scale"
        assert bundle["series"][0]["name"] == "solver_scaling"
