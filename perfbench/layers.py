"""Layer timing from outside the program.

The benchmark changes nothing under ``src/``. It replaces module and
class attributes with timing wrappers for the length of a traced round,
exactly where the calling code looks them up (``repro.core.metrics``
calls ``solve_dag_batch`` through its own module namespace, so that is
the attribute wrapped), and restores them afterwards.

Every wrapped call is a span. Spans nest per thread, so a layer's self
time is its own duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator


class Spans:
    """Self times and call counts of the wrapped calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call of ``name``; its parent loses this as self time."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name`` on every call."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed


class FetchLog:
    """Client fetches: how many returned entries, and the gaps between."""

    def __init__(self) -> None:
        self.fetches = 0
        self.useful = 0
        self.wait_s = 0.0
        self._last: dict[int, tuple[str, float]] = {}

    def wrap(self, fetch: Callable) -> Callable:
        @functools.wraps(fetch)
        def logged(client, job_id, offset=0):
            thread = threading.get_ident()
            start = time.perf_counter()
            last_job, last_end = self._last.get(thread, (None, 0.0))
            if last_job == job_id:
                self.wait_s += start - last_end
            try:
                response = fetch(client, job_id, offset)
            finally:
                self._last[thread] = (job_id, time.perf_counter())
            self.fetches += 1
            self.useful += bool(response.entries)
            return response

        return logged


def _span_factory(spans: Spans, original: Callable) -> Callable:
    """Stand-in for ``repro.obs.span`` that also records the span here."""

    @contextlib.contextmanager
    def span(name: str, **attrs):
        with spans.span(name), original(name, **attrs) as inner:
            yield inner

    return span


#: Per-layer metrics of a traced round, with their units. Times are self
#: times in seconds, ``_calls`` and counters are counts per round.
PER_LAYER = {
    "costs.cost_vector_s": "s",
    "costs.cost_vector_calls": "count",
    "core.fastpath.fill_transition_rates_s": "s",
    "core.fastpath.fill_transition_rates_calls": "count",
    "fastpath.rate_fills": "count",
    "core.fastpath.lattice_structure_s": "s",
    "core.fastpath.lattice_structure_calls": "count",
    "fastpath.structure_builds": "count",
    "ctmc.acyclic.solve_dag_batch_s": "s",
    "ctmc.acyclic.solve_dag_batch_calls": "count",
    "solver.dag_level_sweeps": "count",
    "ctmc.transient.transient_distribution_batch_s": "s",
    "ctmc.transient.transient_distribution_batch_calls": "count",
    "solver.uniformization_steps": "count",
    "core.metrics.evaluate_batch_outcomes_self_s": "s",
    "core.metrics.evaluate_survivability_batch_outcomes_self_s": "s",
    "engine.batch.dedup_s": "s",
    "engine.batch.cache_lookup_s": "s",
    "engine.batch.evaluate_s": "s",
    "engine.batch.store_s": "s",
    "engine.batch.cache_hits": "count",
    "engine.batch.evaluated": "count",
    "engine.cache.get_s": "s",
    "engine.cache.get_calls": "count",
    "engine.cache.put_s": "s",
    "engine.cache.put_calls": "count",
    "engine.cache.hit_ratio": "ratio",
    "service.client.submit_s": "s",
    "service.client.fetch_s": "s",
    "service.client.fetch_calls": "count",
    "service.client.fetch_useful_ratio": "ratio",
    "service.client.wait_s": "s",
    "service.server.fetch_s": "s",
    "trace.dark_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: Spans, fetches: FetchLog, counts, reports) -> dict:
    """Every :data:`PER_LAYER` metric but the overhead, for one round.

    ``counts`` are the round's counter deltas and hit/miss split;
    ``reports`` the evaluating runner's ``BatchReport`` dicts.
    """
    values: dict[str, float] = {}
    for name in (
        "costs.cost_vector",
        "core.fastpath.fill_transition_rates",
        "core.fastpath.lattice_structure",
        "ctmc.acyclic.solve_dag_batch",
        "ctmc.transient.transient_distribution_batch",
        "engine.cache.get",
        "engine.cache.put",
        "service.client.fetch",
    ):
        values[f"{name}_s"] = spans.self_s.get(name, 0.0)
        values[f"{name}_calls"] = spans.calls.get(name, 0)
    for name in (
        "core.metrics.evaluate_batch_outcomes",
        "core.metrics.evaluate_survivability_batch_outcomes",
    ):
        values[f"{name}_self_s"] = spans.self_s.get(name, 0.0)
    for name in (
        "fastpath.rate_fills",
        "fastpath.structure_builds",
        "solver.dag_level_sweeps",
        "solver.uniformization_steps",
    ):
        values[name] = counts.get(name, 0)
    for phase in ("dedup", "cache_lookup", "evaluate", "store"):
        values[f"engine.batch.{phase}_s"] = sum(
            r["phase_seconds"].get(phase, 0.0) for r in reports
        )
    hits = counts["split.cache_hits"]
    values["engine.batch.cache_hits"] = hits
    values["engine.batch.evaluated"] = counts["split.evaluated"]
    unique = sum(r["n_unique"] for r in reports)
    values["engine.cache.hit_ratio"] = hits / unique if unique else 0.0
    values["service.client.submit_s"] = spans.self_s.get("service.client.submit", 0.0)
    values["service.server.fetch_s"] = spans.self_s.get("service.server.fetch", 0.0)
    values["service.client.fetch_useful_ratio"] = (
        fetches.useful / fetches.fetches if fetches.fetches else 0.0
    )
    values["service.client.wait_s"] = fetches.wait_s
    values["trace.dark_s"] = spans.self_s.get("engine.batch.run", 0.0)
    return values


@contextlib.contextmanager
def instrumented(spans: Spans, fetches: FetchLog) -> Iterator[None]:
    """Install every layer wrapper; restore the originals on exit."""
    import repro.core.metrics as core_metrics
    import repro.engine.batch as engine_batch
    from repro.costs.aggregate import GCSCostModel
    from repro.engine.batch import BatchRunner
    from repro.engine.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.server import SweepService

    targets = [
        (GCSCostModel, "cost_vector", "costs.cost_vector"),
        (core_metrics, "fill_transition_rates", "core.fastpath.fill_transition_rates"),
        (core_metrics, "lattice_structure", "core.fastpath.lattice_structure"),
        (core_metrics, "solve_dag_batch", "ctmc.acyclic.solve_dag_batch"),
        (
            core_metrics,
            "transient_distribution_batch",
            "ctmc.transient.transient_distribution_batch",
        ),
        (core_metrics, "evaluate_batch_outcomes", "core.metrics.evaluate_batch_outcomes"),
        (
            core_metrics,
            "evaluate_survivability_batch_outcomes",
            "core.metrics.evaluate_survivability_batch_outcomes",
        ),
        (BatchRunner, "run", "engine.batch.run"),
        (ResultCache, "get", "engine.cache.get"),
        (ResultCache, "put", "engine.cache.put"),
        (ServiceClient, "submit", "service.client.submit"),
        (SweepService, "fetch", "service.server.fetch"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    saved.append((ServiceClient, "fetch", ServiceClient.__dict__["fetch"]))
    saved.append((engine_batch, "span", engine_batch.span))
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, spans.wrap(name, getattr(owner, attr)))
        # The client fetch is both a span and the source of the wait and
        # usefulness figures.
        ServiceClient.fetch = spans.wrap(
            "service.client.fetch", fetches.wrap(ServiceClient.fetch)
        )
        # BatchRunner.run's phases are `with span(...)` blocks; timing
        # them is what makes the run's uncovered (dark) time measurable.
        engine_batch.span = _span_factory(spans, engine_batch.span)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
