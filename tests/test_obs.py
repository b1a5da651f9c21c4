"""Tests for :mod:`repro.obs` — tracing, metrics, manifests, overhead.

Covers the contracts the rest of the repo leans on:

* span nesting/attrs and Chrome-trace / JSONL export round-trips;
* histogram bin-edge semantics (1-2-5 per decade, boundary values,
  merge requires identical edges);
* registry snapshot → diff → merge algebra, including that a fanned
  ``vector:2`` run merges worker deltas into exactly the counters an
  in-process run records;
* ``RunManifest`` schema stability (downstream tooling reads the keys);
* the disabled path stays a no-op (shared ``NULL_SPAN`` singleton,
  nothing recorded, per-call cost bounded);
* worker-side tracebacks on :class:`PointError`.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine import (
    BatchRunner,
    EvalRequest,
    ProcessPoolBackend,
    make_backend,
)
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    RunManifest,
    batch_reports,
    default_bin_edges,
    disable_tracing,
    enable_tracing,
    kernel_flags,
    metrics,
    params_digest,
    records_from_dicts,
    reset_observability,
    span,
    tracer,
    tracing_enabled,
    write_chrome_trace,
    write_jsonl,
)
from repro.params import GCSParameters


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with pristine observability state."""
    reset_observability()
    disable_tracing()
    yield
    reset_observability()
    disable_tracing()


@pytest.fixture(scope="module")
def params():
    return GCSParameters.small_test()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nesting_depth_and_attrs(self):
        enable_tracing()
        with span("outer", phase="a"):
            with span("inner", n=3):
                pass
        records = tracer().records()
        by_name = {r.name: r for r in records}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].attrs["n"] == 3
        assert by_name["outer"].pid == os.getpid()
        # The inner span is fully contained in the outer one.
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.start_s <= inner.start_s
        assert inner.duration_s <= outer.duration_s

    def test_exception_marks_span(self):
        enable_tracing()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("nope")
        (record,) = tracer().records()
        assert record.attrs["error"] == "ValueError"

    def test_set_adds_attrs_at_exit(self):
        enable_tracing()
        with span("work") as sp:
            sp.set(attached=2)
        (record,) = tracer().records()
        assert record.attrs["attached"] == 2

    def test_chrome_trace_export(self, tmp_path):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        assert {e["name"] for e in events} == {"outer", "inner"}

    def test_jsonl_round_trip(self, tmp_path):
        enable_tracing()
        with span("alpha", k=1):
            pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        (restored,) = records_from_dicts(lines)
        (original,) = tracer().records()
        assert restored == original

    def test_mark_since_isolates_new_spans(self):
        enable_tracing()
        with span("before"):
            pass
        mark = tracer().mark()
        with span("after"):
            pass
        assert [r.name for r in tracer().since(mark)] == ["after"]


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_default_edges_are_125_per_decade(self):
        edges = default_bin_edges()
        assert edges[0] == pytest.approx(1e-7)
        assert edges[1] == pytest.approx(2e-7)
        assert edges[2] == pytest.approx(5e-7)
        assert 1.0 in edges and 2.0 in edges and 5.0 in edges
        # 11 decades (1e-7 .. 1e3) x 3 mantissas.
        assert len(edges) == 33

    def test_boundary_values_bin_right(self):
        h = Histogram(edges=(1.0, 2.0, 5.0))
        h.observe(0.5)   # underflow
        h.observe(1.0)   # edge value goes to the bin *above* it
        h.observe(1.999)
        h.observe(2.0)
        h.observe(4.9)
        h.observe(5.0)   # overflow
        h.observe(70.0)  # overflow
        assert h.counts == [1, 2, 2, 2]
        assert h.count == 7
        assert h.min == 0.5
        assert h.max == 70.0

    def test_merge_adds_counts(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(3.0)
        a.merge_dict(b.as_dict())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5
        assert a.max == 3.0

    def test_merge_rejects_different_edges(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 3.0))
        b.observe(1.5)
        with pytest.raises(ValueError, match="identical bin edges"):
            a.merge_dict(b.as_dict())


# ---------------------------------------------------------------------------
# registry algebra
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_snapshot_diff_merge_round_trip(self):
        r1 = MetricsRegistry()
        r1.counter("c").add(2)
        r1.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        base = r1.snapshot()
        r1.counter("c").add(3)
        r1.gauge("g").set(7.0)
        r1.histogram("h", edges=(1.0, 2.0)).observe(0.5)
        delta = r1.diff(base)

        r2 = MetricsRegistry()
        r2.merge(base)
        r2.merge(delta)
        assert r2.snapshot() == r1.snapshot()

    def test_unchanged_metrics_not_in_diff(self):
        r = MetricsRegistry()
        r.counter("hot").add()
        r.counter("cold").add()
        base = r.snapshot()
        r.counter("hot").add()
        assert list(r.diff(base)) == ["hot"]

    def test_kind_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")


# ---------------------------------------------------------------------------
# cross-process merge
# ---------------------------------------------------------------------------

class TestCrossProcessMerge:
    GRID = [
        EvalRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=t
            )
        )
        for m in (3, 5)
        for t in (15.0, 60.0)
    ]

    @staticmethod
    def _work_counters():
        """Counters that must not depend on where the work ran."""
        keep = (
            "engine.requests",
            "engine.unique",
            "engine.cache_hits",
            "engine.evaluated",
            "engine.errors",
            "solver.dag_points_solved",
        )
        snap = metrics().snapshot()
        return {k: snap[k]["value"] for k in keep if k in snap}

    def test_fanned_vector_merge_matches_inline(self):
        BatchRunner(backend=make_backend("vector")).run(
            self.GRID
        ).report.raise_on_error()
        inline = self._work_counters()

        reset_observability()
        BatchRunner(backend=make_backend("vector:2")).run(
            self.GRID
        ).report.raise_on_error()
        fanned = self._work_counters()

        assert inline["solver.dag_points_solved"] == len(self.GRID)
        assert fanned == inline

    def test_worker_spans_ship_to_parent(self):
        enable_tracing()
        BatchRunner(backend=make_backend("vector:2")).run(
            self.GRID
        ).report.raise_on_error()
        names = {r.name for r in tracer().records()}
        assert "vector.pool_run" in names
        assert "chunk.solve" in names
        solve_pids = {
            r.pid for r in tracer().records() if r.name == "chunk.solve"
        }
        assert solve_pids, "worker chunk spans were not shipped back"
        assert os.getpid() not in solve_pids


# ---------------------------------------------------------------------------
# layer attribution: no dark time inside a batched solve
# ---------------------------------------------------------------------------

#: Share of every ``vector.solve`` span its direct children must cover.
MIN_CHILD_COVERAGE = 0.95


def _child_coverage(records, parent_name: str) -> list[tuple[float, set]]:
    """Per ``parent_name`` span: covered fraction and child span names."""
    coverage = []
    for parent in (r for r in records if r.name == parent_name):
        end = parent.start_s + parent.duration_s
        children = [
            r
            for r in records
            if (r.pid, r.tid) == (parent.pid, parent.tid)
            and r.depth == parent.depth + 1
            and parent.start_s <= r.start_s <= end
        ]
        covered = sum(r.duration_s for r in children) / parent.duration_s
        coverage.append((covered, {r.name for r in children}))
    return coverage


class TestLayerCoverage:
    def test_traced_quick_sweep_has_no_dark_solve_time(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "sweep",
                "--axis",
                "detection_interval_s=15,60,240,960",
                "--axis",
                "num_voters=3,5,7",
                "--n",
                "40",
                "--jobs",
                "vector",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        with open(trace, encoding="utf-8") as fh:
            records = records_from_dicts(json.loads(line) for line in fh)
        coverage = _child_coverage(records, "vector.solve")
        assert coverage, "no vector.solve span recorded"
        for covered, names in coverage:
            assert {"prepare.rates", "prepare.costs", "solve.mean"} <= names
            assert "package" in names
            assert covered >= MIN_CHILD_COVERAGE, (covered, names)

    @pytest.mark.parametrize("kind", ["variance", "survivability"])
    def test_variance_and_survivability_solves_are_attributed(self, kind):
        from repro.engine import SurvivabilityRequest
        from repro.engine.batch import evaluate_survivability_request

        base = GCSParameters.paper_defaults(num_nodes=40)
        grid = [
            base.replacing(num_voters=m, detection_interval_s=t)
            for m in (3, 5)
            for t in (60.0, 240.0)
        ]
        if kind == "variance":
            requests = [
                EvalRequest(params=p, include_breakdown=True, include_variance=True)
                for p in grid
            ]
            options, solve = {}, "solve.variance"
        else:
            requests = [
                SurvivabilityRequest(params=p, times_s=(0.5, 2.0, 8.0)) for p in grid
            ]
            options = {"evaluate": evaluate_survivability_request}
            solve = "solve.transient"
        enable_tracing()
        BatchRunner(backend=make_backend("vector")).run(
            requests, **options
        ).report.raise_on_error()
        coverage = _child_coverage(tracer().records(), "vector.solve")
        assert coverage, "no vector.solve span recorded"
        for covered, names in coverage:
            assert {"prepare.rates", "prepare.costs", solve, "package"} <= names
            assert covered >= MIN_CHILD_COVERAGE, (covered, names)


# ---------------------------------------------------------------------------
# batch reports and ledger
# ---------------------------------------------------------------------------

class TestBatchReport:
    def test_phase_timings_and_hit_rate(self, params):
        runner = BatchRunner()
        requests = [EvalRequest(params=params)]
        cold = runner.run(requests)
        assert set(cold.report.phase_seconds) == {
            "dedup", "cache_lookup", "evaluate", "store",
        }
        assert cold.report.hit_rate == 0.0
        warm = runner.run(requests)
        assert warm.report.hit_rate == 1.0
        assert "hit rate" in warm.report.describe_phases()

    def test_ledger_records_every_batch(self, params):
        runner = BatchRunner()
        runner.run([EvalRequest(params=params)])
        runner.run([EvalRequest(params=params)])
        reports = batch_reports()
        assert len(reports) == 2
        assert reports[0]["n_evaluated"] == 1
        assert reports[1]["n_cache_hits"] == 1
        assert "phase_seconds" in reports[0]


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

class TestManifest:
    # Downstream tooling reads these keys; changing them requires a
    # schema_version bump.
    EXPECTED_KEYS = [
        "schema_version",
        "command",
        "created_at",
        "git_sha",
        "python",
        "backend",
        "params_digest",
        "kernel_flags",
        "reports",
        "cache_stats",
        "errors",
        "metrics",
    ]

    def test_schema_keys_stable(self):
        manifest = RunManifest(command="repro-experiments sweep")
        payload = manifest.finalize().to_dict()
        assert list(payload) == self.EXPECTED_KEYS
        assert payload["schema_version"] == MANIFEST_SCHEMA_VERSION == 1

    def test_kernel_flags_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_GATHER", raising=False)
        monkeypatch.setenv("REPRO_STRUCTURE_SHARE", "off")
        flags = kernel_flags()
        assert flags["fused_gather"] is True
        assert flags["structure_share"] is False
        assert flags["env"]["REPRO_STRUCTURE_SHARE"] == "off"

    def test_params_digest_is_order_independent(self):
        assert params_digest(["b", "a"]) == params_digest(["a", "b"])
        assert params_digest(["a"]) != params_digest(["a", "b"])

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        RunManifest(command="test", backend="serial").write(path)
        payload = json.loads(path.read_text())
        assert payload["command"] == "test"
        assert payload["git_sha"] is None or isinstance(payload["git_sha"], str)
        assert payload["created_at"]


# ---------------------------------------------------------------------------
# disabled overhead
# ---------------------------------------------------------------------------

class TestDisabledOverhead:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        assert span("anything", n=1) is NULL_SPAN
        with span("anything"):
            pass
        assert tracer().records() == []

    def test_disabled_span_cost_bounded(self):
        iterations = 50_000
        t0 = time.perf_counter()
        for _ in range(iterations):
            with span("noop", i=0):
                pass
        per_call_ns = (time.perf_counter() - t0) / iterations * 1e9
        # A no-op context manager costs a few hundred ns; 10µs would
        # mean the disabled path started doing real work.  The bound is
        # deliberately loose so slow CI machines never flake.
        assert per_call_ns < 10_000, f"{per_call_ns:.0f}ns per disabled span"


# ---------------------------------------------------------------------------
# worker tracebacks
# ---------------------------------------------------------------------------

class TestPointErrorTraceback:
    def test_serial_traceback(self, params):
        bad = EvalRequest(params=params, method="spn", include_breakdown=True)
        batch = BatchRunner().run([bad])
        (error,) = batch.report.errors
        assert error.error_type == "ParameterError"
        assert "Traceback" in error.traceback
        assert "ParameterError" in error.traceback
        payload = error.as_dict()
        assert set(payload) == {
            "index", "params", "error_type", "error", "traceback",
        }

    def test_pool_traceback_crosses_processes(self, params):
        bad = EvalRequest(params=params, method="spn", include_breakdown=True)
        batch = BatchRunner(backend=ProcessPoolBackend(2)).run(
            [bad, EvalRequest(params=params)]
        )
        (error,) = batch.report.errors
        assert "Traceback" in error.traceback
        assert "ParameterError" in error.traceback
