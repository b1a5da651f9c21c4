"""Pluggable execution backends for batch evaluation.

Two local backends behind one ``run(fn, items)`` contract:

* :class:`SerialBackend` — in-process loop, zero overhead, the
  reference semantics (the oracle every other backend is tested
  against);
* :class:`VectorBackend` — model-evaluation and survivability batches
  are recognised and solved *simultaneously* by the structure-sharing
  batched solvers (:func:`repro.core.metrics.evaluate_batch_outcomes`
  / :func:`repro.core.metrics.evaluate_survivability_batch_outcomes`);
  anything else runs point by point. The speedup is algorithmic, so it
  stacks with single-core machines — and with ``chunk_workers`` set
  (``--jobs N`` / ``--jobs vector:N``) independent chunks additionally
  fan out over one process pool (the vector+procs hybrid): batched
  chunks for engine requests, per-point :func:`run_chunk` chunks for
  everything else.

Both return :class:`PointOutcome` records in **input order** regardless
of completion order, and both capture per-point exceptions into the
outcome instead of aborting the whole batch — a sweep with one
pathological grid point still yields the other N−1 results. The
backends are observationally equivalent: same inputs, same outcomes,
same ordering (asserted by the test suite; the vector backend is
additionally *bit-identical* to serial on model and survivability
batches).

A third backend lives in :mod:`repro.service`:
:class:`~repro.service.client.RemoteBackend` (``--jobs remote[:URL]``)
submits engine batches to a sweep-service job server over HTTP and
streams the outcomes back — same contract, same ordering, evaluation
on another process or host.

:func:`make_backend` maps the CLI's ``--jobs`` grammar (``N``,
``auto``, ``vector[:N]``, ``remote[:URL]``) onto a backend;
:func:`available_cpus` is the ``auto`` worker count (cgroup/affinity
aware where the platform exposes it).
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Protocol, Sequence, Union

from ..errors import ParameterError
from ..obs import metrics, span
from ..obs.runtime import (
    absorb_telemetry,
    init_worker,
    telemetry_capture,
    worker_config,
)

log = logging.getLogger(__name__)

#: Optional streaming callback: invoked once per completed outcome, in
#: completion order, before the backend returns (``--progress`` uses it).
OutcomeFn = Callable[["PointOutcome"], None]

__all__ = [
    "OutcomeFn",
    "PointOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "VectorBackend",
    "available_cpus",
    "make_backend",
    "run_chunk",
]


def _init_pool_worker(obs_config) -> None:
    """Pool initializer: the parent's observability handoff.

    Runs once per worker process, so the ``worker.init`` span is traced
    when tracing is on.
    """
    init_worker(obs_config)
    with span("worker.init"):
        metrics().counter("pool.workers_initialized").add()


@dataclass(frozen=True)
class PointOutcome:
    """Result (or captured failure) of evaluating one task.

    ``exception`` carries the original exception object when it
    survives a pickle round-trip (so callers can re-raise with the
    true type); ``error``/``error_type`` are its string form, always
    present on failure.  ``traceback`` is the formatted traceback
    *from the process that raised* — pool failures stay diagnosable
    even though the traceback object itself cannot cross the boundary.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    exception: Optional[BaseException] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the point evaluated without error."""
        return self.error is None


def _evaluate_one(fn: Callable[[Any], Any], index: int, item: Any) -> PointOutcome:
    try:
        return PointOutcome(index=index, value=fn(item))
    except Exception as exc:  # noqa: BLE001 — per-point capture is the contract
        log.debug("point %d failed: %s: %s", index, type(exc).__name__, exc)
        return PointOutcome(
            index=index,
            error=str(exc),
            error_type=type(exc).__name__,
            exception=_carry(exc),
            traceback=traceback_module.format_exc(),
        )


def run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[tuple[int, Any]],
    submitted_at: Optional[float] = None,
    *,
    backend: Optional["ExecutionBackend"] = None,
) -> tuple[list[PointOutcome], dict]:
    """Evaluate one ``(index, item)`` chunk under telemetry capture.

    This is the chunk protocol every fan-out tier shares: the
    :class:`VectorBackend` pool runs it on per-point chunks, and
    service workers (:mod:`repro.service.worker`) call it directly on
    leased chunks — same span, same telemetry-delta payload, so the
    parent/server absorbs either origin identically.

    ``backend=None`` evaluates serially in the calling thread; passing
    a backend fans the chunk's items across it, with outcomes remapped
    to the chunk's own indices.
    """
    with telemetry_capture(submitted_at) as capture:
        with span("chunk.evaluate", points=len(chunk)):
            if backend is None:
                outcomes = [_evaluate_one(fn, index, item) for index, item in chunk]
            else:
                indices = [index for index, _ in chunk]
                raw = backend.run(fn, [item for _, item in chunk])
                outcomes = [
                    replace(outcome, index=indices[local])
                    for local, outcome in enumerate(raw)
                ]
    return outcomes, capture.payload


def _run_solve_chunk(
    solve: Callable[..., list[PointOutcome]],
    requests: Sequence[Any],
    submitted_at: Optional[float] = None,
) -> tuple[list[PointOutcome], dict]:
    """Telemetry-capturing wrapper for the vector+procs batched chunks."""
    with telemetry_capture(submitted_at) as capture:
        with span("chunk.solve", points=len(requests)):
            outcomes = solve(requests)
    return outcomes, capture.payload


class ExecutionBackend(Protocol):
    """Anything that can map a callable over tasks with error capture."""

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate ``fn`` on every item; outcomes in input order.

        ``on_outcome`` (when given) is invoked once per outcome in
        *completion* order, before ``run`` returns — the hook behind
        streaming progress displays.
        """
        ...  # pragma: no cover

    def describe(self) -> str:
        """Short human-readable backend description."""
        ...  # pragma: no cover


def _notify(on_outcome: Optional[OutcomeFn], outcome: PointOutcome) -> None:
    if on_outcome is not None:
        on_outcome(outcome)


class SerialBackend:
    """In-process reference backend."""

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate items one by one in the calling thread."""
        outcomes = []
        for i, item in enumerate(items):
            outcome = _evaluate_one(fn, i, item)
            _notify(on_outcome, outcome)
            outcomes.append(outcome)
        return outcomes

    def describe(self) -> str:
        """Short backend description (``serial``)."""
        return "serial"


def _carry(exc: BaseException) -> Optional[BaseException]:
    """The exception object iff it survives a pickle round-trip."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — unpicklable exception
        return None


def _outcomes_from_batch(
    batch: "list[tuple[Any, Optional[BaseException]]]",
    *,
    sanitize: bool,
) -> list[PointOutcome]:
    """Wrap ``(result, error)`` pairs as chunk-local :class:`PointOutcome`.

    ``sanitize`` replaces the carried exception by its pickle
    round-trip (or ``None``) — required when the outcome list itself
    must cross a process boundary.
    """
    outcomes: list[PointOutcome] = []
    for i, (result, error) in enumerate(batch):
        if error is None:
            outcomes.append(PointOutcome(index=i, value=result))
        else:
            outcomes.append(
                PointOutcome(
                    index=i,
                    error=str(error),
                    error_type=type(error).__name__,
                    exception=_carry(error) if sanitize else error,
                    traceback="".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                )
            )
    return outcomes


def _solve_model_chunk(
    requests: Sequence[Any], *, sanitize: bool = True
) -> list[PointOutcome]:
    """Solve one homogeneous chunk of ``EvalRequest`` items (picklable:
    this is what the vector+procs hybrid ships to pool workers)."""
    from ..core.metrics import evaluate_batch_outcomes

    first = requests[0]
    batch = evaluate_batch_outcomes(
        [(r.params, r.network) for r in requests],
        method=first.method,
        include_breakdown=first.include_breakdown,
        include_variance=first.include_variance,
    )
    return _outcomes_from_batch(batch, sanitize=sanitize)


def _solve_survivability_chunk(
    requests: Sequence[Any], *, sanitize: bool = True
) -> list[PointOutcome]:
    """Survivability counterpart of :func:`_solve_model_chunk`."""
    from ..core.metrics import evaluate_survivability_batch_outcomes

    first = requests[0]
    batch = evaluate_survivability_batch_outcomes(
        [(r.params, r.network) for r in requests],
        times=first.times_s,
        eps=first.eps,
    )
    return _outcomes_from_batch(batch, sanitize=sanitize)


class VectorBackend:
    """Structure-sharing batched evaluation behind the backend contract.

    When ``run`` receives one of the engine's canonical batch tasks —
    :func:`repro.engine.batch.evaluate_request` over
    :class:`~repro.engine.batch.EvalRequest` items, or
    :func:`repro.engine.batch.evaluate_survivability_request` over
    :class:`~repro.engine.batch.SurvivabilityRequest` items — the whole
    batch is handed to the matching structure-sharing solver
    (:func:`repro.core.metrics.evaluate_batch_outcomes` /
    :func:`repro.core.metrics.evaluate_survivability_batch_outcomes`):
    requests are grouped by solver options, each group shares one
    cached lattice structure per ``N``, and a single multi-point sweep
    solves every grid point at once — bit-identical results, no
    processes, no pickling. Arbitrary callables (and mixed
    ``evaluate_auto`` batches) run point by point, so the backend is
    safe to use anywhere a backend is accepted.

    ``chunk_workers`` is the **vector+procs hybrid** (``--jobs N`` /
    ``--jobs vector:N``): each homogeneous group is split into about two
    input-order chunks per worker, fanned out over one process pool.
    Engine groups ship as batched solves (every worker runs the batched
    solver on its chunk); everything else ships as per-point
    :func:`run_chunk` chunks, so ``fn`` and the items must then be
    picklable. Per-point arithmetic in the batched solvers never mixes
    points, so chunked results are byte-identical to the single-process
    vector path. Each worker builds the lattice skeleton once per ``N``,
    on its first chunk, through its own per-process structure cache.
    Work too small to fill two chunks runs in-process (pool spin-up is
    never worth it).

    Composes with the result cache exactly like every other backend:
    the :class:`~repro.engine.batch.BatchRunner` fingerprints and
    stores results *around* the backend, so batched results land under
    the same content-addressed keys as per-point runs.
    """

    def __init__(self, *, chunk_workers: Optional[int] = None) -> None:
        if chunk_workers is not None and chunk_workers < 1:
            raise ParameterError(f"chunk_workers must be >= 1, got {chunk_workers}")
        self.chunk_workers = chunk_workers

    def _batch_kind(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Optional[str]:
        """Classify a canonical engine batch; ``None`` means per point.

        ``evaluate_auto`` (the sweep service's type-dispatching
        evaluator) is recognised too, as long as the batch is
        homogeneous — a mixed eval/survivability batch runs point by
        point, which stays correct (``evaluate_auto`` dispatches per
        item) at per-point speed.
        """
        from .batch import (
            EvalRequest,
            SurvivabilityRequest,
            evaluate_auto,
            evaluate_request,
            evaluate_survivability_request,
        )

        if fn in (evaluate_request, evaluate_auto) and all(
            isinstance(item, EvalRequest) for item in items
        ):
            return "model"
        if fn in (evaluate_survivability_request, evaluate_auto) and all(
            isinstance(item, SurvivabilityRequest) for item in items
        ):
            return "survivability"
        return None

    def _group_key(self, kind: str, request: Any) -> tuple:
        if kind == "model":
            return (
                request.method,
                request.include_breakdown,
                request.include_variance,
            )
        return (request.times_s, request.eps)

    def _chunks(self, indices: list[int]) -> list[list[int]]:
        """Deterministic input-order chunking for the process fan-out."""
        if not self.chunk_workers:
            return [indices]
        # ~2 chunks per worker: enough slack to balance uneven chunk
        # costs without shredding the batches the solver amortises over.
        size = max(1, math.ceil(len(indices) / (self.chunk_workers * 2)))
        return [indices[i : i + size] for i in range(0, len(indices), size)]

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate a batch, routing homogeneous engine requests to the
        batched solvers and everything else point by point.
        """
        if not items:
            return []
        kind = self._batch_kind(fn, items)
        solve = {
            "model": _solve_model_chunk,
            "survivability": _solve_survivability_chunk,
        }.get(kind)
        # One batched solve per distinct option bundle (one group of
        # every point when per point); scatter the outcomes back into
        # input order.
        groups: dict[tuple, list[int]] = {}
        for i, item in enumerate(items):
            key = () if kind is None else self._group_key(kind, item)
            groups.setdefault(key, []).append(i)

        inline: list[list[int]] = []
        fanned: list[list[int]] = []
        for indices in groups.values():
            chunks = self._chunks(indices)
            if len(chunks) > 1:
                fanned.extend(chunks)
            else:
                inline.append(indices)

        outcomes: list[Optional[PointOutcome]] = [None] * len(items)

        def scatter(chunk: list[int], chunk_outcomes: list[PointOutcome]) -> None:
            for i, local in zip(chunk, chunk_outcomes):
                outcome = replace(local, index=i)
                outcomes[i] = outcome
                _notify(on_outcome, outcome)

        for indices in inline:
            if solve is None:
                for i in indices:
                    scatter([i], [_evaluate_one(fn, i, items[i])])
            else:
                with span("vector.solve", kind=kind, points=len(indices)):
                    requests = [items[i] for i in indices]
                    scatter(indices, solve(requests, sanitize=False))
        if fanned:
            assert self.chunk_workers is not None
            workers = min(self.chunk_workers, len(fanned))
            with span(
                "vector.pool_run",
                kind=kind or "points",
                workers=workers,
                chunks=len(fanned),
            ):
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_pool_worker,
                    initargs=(worker_config(),),
                ) as pool:
                    futures = []
                    for chunk in fanned:
                        if solve is None:
                            task = (run_chunk, fn, [(i, items[i]) for i in chunk])
                        else:
                            task = (_run_solve_chunk, solve, [items[i] for i in chunk])
                        futures.append(pool.submit(*task, time.time()))
                    # Point-level errors are already captured inside the
                    # chunk; a future-level error means the worker died
                    # (OOM kill, unpicklable payload) and should propagate.
                    for chunk, future in zip(fanned, futures):
                        chunk_outcomes, telemetry = future.result()
                        absorb_telemetry(telemetry)
                        scatter(chunk, chunk_outcomes)
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def describe(self) -> str:
        """Short backend description (``vector`` or ``vector+procs``)."""
        if self.chunk_workers:
            return f"vector+procs(workers={self.chunk_workers})"
        return "vector"


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover — macOS / Windows
        return os.cpu_count() or 1


def make_backend(jobs: Union[int, str, None]) -> ExecutionBackend:
    """Map the shared ``--jobs`` grammar onto a backend.

    * ``None`` / ``0`` / ``1`` / ``"serial"`` — :class:`SerialBackend`;
    * ``"vector"`` — :class:`VectorBackend` (structure-sharing batched
      solver; no worker processes needed);
    * ``n > 1`` (int or numeric string) / ``"vector:N"`` — the
      vector+procs hybrid: batched solving *and* ``N`` pool workers,
      each solving independent chunks of the batch;
    * ``"auto"`` / ``"vector:auto"`` — the hybrid with one worker per
      :func:`available_cpus` (plain ``vector`` when only one CPU is
      usable);
    * ``"remote"`` / ``"remote:URL"`` — submit engine batches to a
      sweep-service job server (:mod:`repro.service`) instead of
      evaluating locally; the bare form reads the URL from
      ``$REPRO_SERVICE_URL`` (default ``http://127.0.0.1:8765``).
    """
    if isinstance(jobs, str):
        spec = jobs.strip().lower()
        if spec == "serial":
            return SerialBackend()
        if spec == "remote" or spec.startswith("remote:"):
            # Import lazily: the engine must not depend on the service
            # tier unless a remote backend is actually requested.
            from ..service.client import DEFAULT_SERVICE_URL, RemoteBackend

            # The URL keeps the caller's case (paths are case-sensitive).
            url = jobs.strip()[len("remote:"):] if spec != "remote" else ""
            if not url:
                url = os.environ.get("REPRO_SERVICE_URL", DEFAULT_SERVICE_URL)
            return RemoteBackend(url, fallback=SerialBackend())
        if spec == "auto":
            spec = "vector:auto"
        if spec == "vector" or spec.startswith("vector:"):
            _, colon, count = spec.partition(":")
            if not colon:
                return VectorBackend()
            if count == "auto":
                n = available_cpus()
                return VectorBackend(chunk_workers=n if n > 1 else None)
            try:
                workers = int(count)
            except ValueError:
                raise ParameterError(
                    "vector worker count must be an integer or 'auto', "
                    f"got {jobs!r}"
                ) from None
            return VectorBackend(chunk_workers=workers)
        try:
            jobs = int(spec)
        except ValueError:
            raise ParameterError(
                "jobs must be N, 'auto', 'serial', 'vector[:N]' or "
                f"'remote[:URL]', got {jobs!r}"
            ) from None
    if jobs is not None and jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs}")
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return VectorBackend(chunk_workers=jobs)
