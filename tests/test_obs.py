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
import statistics
import time
from collections import Counter

import pytest

from repro.engine import (
    BatchRunner,
    EvalRequest,
    VectorBackend,
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

def _pid(_item) -> int:
    return os.getpid()


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

    def test_per_point_chunks_leave_the_parent(self):
        # Arbitrary callables fan out per point on the same pool as the
        # batched chunks, and their chunk.evaluate spans ship back.
        enable_tracing()
        outcomes = VectorBackend(chunk_workers=2).run(_pid, range(8))
        assert os.getpid() not in {o.value for o in outcomes}
        evaluate_pids = {
            r.pid for r in tracer().records() if r.name == "chunk.evaluate"
        }
        assert evaluate_pids, "per-point chunk spans were not shipped back"
        assert os.getpid() not in evaluate_pids

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
#: The same for a pool worker's ``chunk.solve``; its first chunk also
#: builds the lattice structure, as a direct child span.
MIN_CHUNK_COVERAGE = 0.90
#: Traced sweeps per coverage check. Chunks last 30–130 ms, so one
#: scheduler stall between two child spans can cost a chunk 10% of wall
#: time; a check reads the median sweep's worst span, so a stall in one
#: sweep is outvoted while missing spans fail every sweep.
COVERAGE_SWEEPS = 3


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


def _traced_quick_sweep(tmp_path, jobs: str):
    """Span records of a traced N=40, 12-point CLI sweep."""
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
            jobs,
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    with open(trace, encoding="utf-8") as fh:
        return records_from_dicts(json.loads(line) for line in fh)


class TestLayerCoverage:
    def test_traced_quick_sweep_has_no_dark_solve_time(self, tmp_path):
        records = _traced_quick_sweep(tmp_path, "vector")
        coverage = _child_coverage(records, "vector.solve")
        assert coverage, "no vector.solve span recorded"
        for covered, names in coverage:
            assert {"prepare.rates", "prepare.costs", "solve.mean"} <= names
            assert "package" in names
            assert covered >= MIN_CHILD_COVERAGE, (covered, names)

    def test_pool_chunks_have_no_dark_solve_time(self, tmp_path):
        from repro.core.fastpath import clear_structure_cache

        worst = []
        for sweep in range(COVERAGE_SWEEPS):
            # Forked workers inherit the parent's structure cache; start
            # empty so every worker has to build its own.
            clear_structure_cache()
            out = tmp_path / f"sweep-{sweep}"
            out.mkdir()
            records = _traced_quick_sweep(out, "vector:2")
            coverage = _child_coverage(records, "chunk.solve")
            assert coverage, "no chunk.solve span recorded"
            for _covered, names in coverage:
                assert {"prepare.rates", "prepare.costs", "solve.mean"} <= names
                assert "package" in names
            worst.append(min(covered for covered, _ in coverage))
            chunk_pids = {r.pid for r in records if r.name == "chunk.solve"}
            builds = Counter(
                r.pid for r in records if r.name == "fastpath.build_structure"
            )
            assert os.getpid() not in chunk_pids
            assert builds == {pid: 1 for pid in chunk_pids}
        assert statistics.median(worst) >= MIN_CHUNK_COVERAGE, worst

    @pytest.mark.parametrize(
        "kind, jobs",
        [
            ("variance", "vector"),
            ("survivability", "vector"),
            ("survivability", "serial"),
        ],
        ids=["variance", "survivability", "survivability-serial"],
    )
    def test_variance_and_survivability_solves_are_attributed(self, kind, jobs):
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
        # A serial point runs the same batched solver, one point at a
        # time, straight under the runner's evaluate span.
        parent = "vector.solve" if jobs == "vector" else "batch.evaluate"
        enable_tracing()
        worst = []
        for _ in range(COVERAGE_SWEEPS):
            tracer().clear()
            BatchRunner(backend=make_backend(jobs)).run(
                requests, **options
            ).report.raise_on_error()
            coverage = _child_coverage(tracer().records(), parent)
            assert coverage, f"no {parent} span recorded"
            for _covered, names in coverage:
                assert {"prepare.rates", "prepare.costs", solve, "package"} <= names
            worst.append(min(covered for covered, _ in coverage))
        assert statistics.median(worst) >= MIN_CHILD_COVERAGE, worst


class TestLayerAttribution:
    """The layers perfbench's ``--trace 1`` times stay on the model path.

    ``perfbench/layers.py`` replaces each of these attributes where the
    batched path looks it up, through ``owner.__dict__[name]``: a
    renamed function would fail that lookup with a ``KeyError``, and a
    path that stopped calling one would leave its layer dark.
    """

    def _count_calls(self, monkeypatch) -> Counter:
        import repro.core.metrics as core_metrics
        from repro.costs.aggregate import GCSCostModel

        calls: Counter = Counter()
        for owner, name in (
            (core_metrics, "fill_transition_rates"),
            (core_metrics, "solve_dag_batch"),
            (core_metrics, "lattice_structure"),
            (GCSCostModel, "cost_vector"),
        ):
            original = owner.__dict__[name]

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_vector_batch_calls_every_layer(self, monkeypatch):
        from repro.core.metrics import evaluate_batch_outcomes

        calls = self._count_calls(monkeypatch)
        grid = [
            GCSParameters.small_test(detection_interval_s=t)
            for t in (15.0, 60.0, 240.0)
        ]
        batch = BatchRunner(backend=make_backend("vector")).run(
            [EvalRequest(params=p) for p in grid]
        )
        batch.report.raise_on_error()
        # One chunk: every point prepared, one solve.
        assert calls == {
            "fill_transition_rates": 3,
            "cost_vector": 3,
            "lattice_structure": 1,
            "solve_dag_batch": 1,
        }
        calls.clear()
        outcomes = evaluate_batch_outcomes(grid, max_batch_bytes=1)
        assert all(error is None for _, error in outcomes)
        assert calls["solve_dag_batch"] == 3  # one solve per chunk


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
        "reports",
        "cache_stats",
        "errors",
        "metrics",
    ]

    def test_schema_keys_stable(self):
        manifest = RunManifest(command="repro-experiments sweep")
        payload = manifest.finalize().to_dict()
        assert list(payload) == self.EXPECTED_KEYS
        assert payload["schema_version"] == MANIFEST_SCHEMA_VERSION == 2

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
        # Two failing points of one option group fill two chunks, so
        # they leave the parent (a lone failing point would run inline).
        bad = [
            EvalRequest(
                params=params.replacing(num_voters=m),
                method="spn",
                include_breakdown=True,
            )
            for m in (3, 5)
        ]
        enable_tracing()
        batch = BatchRunner(backend=VectorBackend(chunk_workers=2)).run(
            [*bad, EvalRequest(params=params)]
        )
        solve_pids = {r.pid for r in tracer().records() if r.name == "chunk.solve"}
        assert solve_pids and os.getpid() not in solve_pids
        assert len(batch.report.errors) == 2
        for error in batch.report.errors:
            assert "Traceback" in error.traceback
            assert "ParameterError" in error.traceback
