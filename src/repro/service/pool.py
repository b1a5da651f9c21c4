"""Fault-tolerant worker pool: leases, heartbeats, adaptive scheduling.

This is the server half of the multi-host fan-out.  The
:class:`~repro.service.server.SweepService` wraps its local execution
backend in a :class:`DistributedBackend`; when a batch's cache misses
reach the evaluate phase, the backend parks them on the
:class:`WorkerPool` queue.  Registered workers (see
:mod:`repro.service.worker`) pull chunks under **time-bounded leases**,
heartbeat while evaluating, and report outcomes back; the HTTP routes
are thin wrappers over the pool's ``register`` / ``lease`` /
``heartbeat`` / ``report`` methods, all of which are quick state
transitions under one lock — safe to call from the server's event-loop
thread while ``run_distributed`` blocks on the service worker thread.

Fault tolerance is the design constraint, in the spirit of the source
paper's premise that distributed detection must survive failed and
compromised nodes:

* **Worker death / network partition** — a missed heartbeat lets the
  lease expire; the reaper requeues the chunk for the next live worker
  (``service.leases_expired`` / ``service.chunks_reassigned``).
* **Capped retries with backoff** — each requeue waits
  ``backoff_base_s · 2^(failures−1)`` (capped, deterministically
  jittered by chunk id) so a flapping worker cannot hot-loop a chunk.
* **Poison chunks** — a chunk that fails ``max_attempts`` times stops
  retrying and resolves to per-point error outcomes carrying the last
  worker's traceback, surfacing as
  :class:`~repro.engine.batch.PointError` exactly like a local failure
  (``service.chunks_poisoned``).
* **Worker quarantine** — a worker that keeps failing chunks is
  quarantined and no longer leased to (``service.workers_quarantined``).
* **Empty / dead pool** — with no live worker the pool evaluates
  chunks on the server's local fallback backend
  (``service.chunks_local_fallback``), so ``--jobs remote`` is never
  worse than the single-host service tier.

Scheduling keeps one straggler from pinning the job tail (the
load-imbalance problem the paper's own performance analysis is about):

* **Per-lease chunk sizing** — chunks are carved from the job's
  remaining points *at lease time*, each an equal share of the live
  pool right now: ``ceil(remaining / (CHUNKS_PER_WORKER · live))``.
  Sizes never freeze at distribution time, so a job submitted to an
  empty pool still spreads over late-joining workers, and a fast
  worker evaluates more of the job because it comes back to lease
  sooner.
* **Tail speculation** — once nothing is left to carve or requeue, an
  idle worker duplicate-leases the longest-held in-flight chunk
  (``service.leases_speculated``); the first complete report resolves
  it and the loser is dropped by the exactly-once dedup.

Results are **exactly-once per point**: chunks never overlap, the
first report of a chunk resolves it, and a later copy — from a slow
worker or a speculative duplicate — is counted
(``service.duplicate_results``) and dropped.  Byte-identity with
``--jobs serial`` holds because every copy of a point evaluates
through the same :func:`repro.engine.executor.run_chunk` protocol on
the same deterministic solver, so it does not matter which copy wins.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import random
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from ..engine.cache import result_from_dict
from ..engine.executor import OutcomeFn, PointOutcome, run_chunk
from ..obs import absorb_telemetry, metrics
from .protocol import (
    ChunkLease,
    ChunkReport,
    HeartbeatAck,
    LeaseResponse,
    ProtocolError,
    WorkerRegistered,
    WorkerRegistration,
    wire_dispatchable,
)

__all__ = [
    "DistributedBackend",
    "PoolConfig",
    "WorkerInfo",
    "WorkerPool",
]

log = logging.getLogger(__name__)

#: Holder key used for leases taken by the server's own fallback loop.
_LOCAL_HOLDER = "<local>"

#: Auto chunk sizing carves about this many chunks per live worker
#: (load balancing vs. per-chunk HTTP overhead).
CHUNKS_PER_WORKER = 4

#: Concurrent leases one chunk may hold: the original plus one
#: speculative duplicate.
MAX_LEASES_PER_CHUNK = 2


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for the worker pool (see docs/service.md for guidance).

    The defaults suit chunk evaluations of a few seconds on a LAN; the
    in-process test layer shrinks everything by ~10× to make fault
    windows cheap to hit.
    """

    #: Seconds a worker may hold a chunk without heartbeating before
    #: the lease expires and the chunk is reassigned.
    lease_ttl_s: float = 5.0
    #: Cadence the server asks workers to heartbeat at.  Each heartbeat
    #: re-arms the worker's held leases, so ``lease_ttl_s`` only needs
    #: to cover the heartbeat gap, not the whole chunk evaluation.
    heartbeat_interval_s: float = 1.0
    #: Longest the HTTP front end holds a lease request that finds no
    #: work (also the ``retry_after_s`` hint of an empty lease — unless
    #: pending chunks are merely backoff-blocked, in which case the hint
    #: and the hold are the actual wait until the earliest one becomes
    #: eligible).
    poll_interval_s: float = 0.5
    #: Failed attempts before a chunk is declared poison.
    max_attempts: int = 3
    #: Chunk failures before a worker is quarantined.
    quarantine_after: int = 3
    #: Points per chunk; ``None`` sizes each lease as an equal share of
    #: the live pool — ``ceil(remaining / (CHUNKS_PER_WORKER · live))``.
    chunk_size: Optional[int] = None
    #: A leased chunk must have been held at least this long before an
    #: idle worker may speculatively duplicate it (avoids thrashing
    #: fresh leases).
    tail_min_lease_age_s: float = 1.0
    #: How often the dispatching thread wakes to reap expired leases.
    reap_tick_s: float = 0.25
    #: Requeue backoff: ``backoff_base_s · 2^(failures-1)`` capped at
    #: ``backoff_cap_s``, jittered ±25% (deterministic per chunk+attempt).
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0

    @property
    def lost_after_s(self) -> float:
        """Heartbeat silence after which a worker no longer counts as live
        (a worker whose lease request is being held is never silent)."""
        return max(self.lease_ttl_s, 3.0 * self.heartbeat_interval_s)

    def summary(self) -> dict:
        """The scheduling knobs surfaced under ``/health``."""
        return {
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "chunk_size": self.chunk_size,
            "max_attempts": self.max_attempts,
        }


@dataclass
class WorkerInfo:
    """Server-side record of one registered worker."""

    worker_id: str
    name: str
    pid: int
    host: str
    backend: str
    registered_at: float
    last_seen: float
    state: str = "idle"  # idle | busy | quarantined | lost
    leases: set = field(default_factory=set)
    chunks_completed: int = 0
    chunks_failed: int = 0
    points_completed: int = 0
    #: Points and summed ``elapsed_s`` over the reports that carried a
    #: timing; their ratio is the roster's throughput.
    timed_points: int = 0
    timed_s: float = 0.0
    #: Lease requests of this worker the front end is holding now.
    holds: int = 0

    def silent(self, now: float, lost_after_s: float) -> bool:
        """True when nothing was heard for ``lost_after_s`` and no lease
        request of this worker is being held."""
        return not self.holds and now - self.last_seen > lost_after_s

    def live(self, now: float, lost_after_s: float) -> bool:
        """True when this worker may be leased new work."""
        return self.state != "quarantined" and not self.silent(now, lost_after_s)

    def roster_entry(self, now: float, lost_after_s: float) -> dict:
        """The ``/health`` roster record for this worker."""
        age = now - self.last_seen
        state = self.state
        if state not in ("quarantined", "lost") and self.silent(now, lost_after_s):
            state = "lost"
        return {
            "id": self.worker_id,
            "name": self.name,
            "pid": self.pid,
            "host": self.host,
            "backend": self.backend,
            "state": state,
            "leases": sorted(self.leases),
            "last_heartbeat_age_s": round(age, 3),
            "chunks_completed": self.chunks_completed,
            "chunks_failed": self.chunks_failed,
            "points_completed": self.points_completed,
            "throughput_points_per_s": (
                round(self.timed_points / self.timed_s, 3)
                if self.timed_s > 0.0
                else None
            ),
        }


def _chunk_id_for(seq: int, items: Sequence[Any]) -> str:
    """Content-addressed chunk id — stable across lease reassignments."""
    digest = hashlib.sha256()
    digest.update(f"{seq}\n".encode("ascii"))
    for item in items:
        digest.update(item.fingerprint().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


class _Lease:
    """One worker's (or the local fallback's) hold on a chunk."""

    __slots__ = ("holder", "granted_at", "expires_at", "speculative")

    def __init__(self, holder, granted_at, expires_at, speculative=False):
        self.holder = holder
        self.granted_at = granted_at
        self.expires_at = expires_at
        self.speculative = speculative


class _Chunk:
    """One unit of leasable work: a slice of a batch's cache misses.

    A chunk may hold up to :data:`MAX_LEASES_PER_CHUNK` concurrent
    leases (the original plus a speculative duplicate); it resolves on
    the first complete report and later copies are dropped.
    """

    __slots__ = (
        "chunk_id",
        "job_id",
        "indices",
        "items",
        "run",
        "attempts",
        "state",  # pending | leased | done
        "leases",
        "not_before",
        "failures",
    )

    def __init__(self, chunk_id, job_id, indices, items, run):
        self.chunk_id = chunk_id
        self.job_id = job_id
        self.indices = tuple(indices)
        self.items = tuple(items)
        self.run = run
        self.attempts = 0
        self.state = "pending"
        self.leases: dict[str, _Lease] = {}
        self.not_before = 0.0
        self.failures: list[dict] = []

    def pairs(self) -> list[tuple[int, Any]]:
        """The ``(global_index, item)`` pairs :func:`run_chunk` expects."""
        return list(zip(self.indices, self.items))

    def oldest_lease_age(self, now: float) -> float:
        """Seconds since the longest-held live lease was granted."""
        if not self.leases:
            return 0.0
        return now - min(lease.granted_at for lease in self.leases.values())


class _RunState:
    """Book-keeping for one ``run_distributed`` call.

    Points resolve individually (``outcomes``/``resolved``), and the
    first outcome for a point wins — the exactly-once guard behind
    chunk-level dedup.  ``next_index`` is the carve cursor — work is
    chunked lazily, one lease at a time, never pre-split, so chunks
    never overlap.
    """

    __slots__ = (
        "fn",
        "items",
        "job_id",
        "outcomes",
        "resolved",
        "deliver",
        "pending",
        "chunks",
        "next_index",
    )

    def __init__(self, fn, items, job_id=""):
        self.fn = fn
        self.items = list(items)
        self.job_id = job_id
        self.outcomes: list[Optional[PointOutcome]] = [None] * len(self.items)
        self.resolved = 0
        self.deliver: deque[PointOutcome] = deque()
        self.pending: deque[_Chunk] = deque()  # requeued chunks only
        self.chunks: list[_Chunk] = []
        self.next_index = 0

    @property
    def done(self) -> bool:
        """True once every point has a resolved outcome."""
        return self.resolved == len(self.items)


class WorkerPool:
    """Lease queue + worker roster with adaptive scheduling and fallback.

    All public methods are thread-safe.  The HTTP-facing ones
    (``register`` … ``report``) only flip state and notify the
    dispatcher; the blocking work happens in :meth:`run_distributed`,
    which the sweep service calls from its job thread.
    """

    def __init__(self, config: Optional[PoolConfig] = None) -> None:
        self.config = config if config is not None else PoolConfig()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[str, WorkerInfo] = {}
        self._chunks: dict[str, _Chunk] = {}
        self._runs: list[_RunState] = []
        #: Called, under the pool lock, on every change that may make a
        #: chunk leasable; the HTTP front end sets it to wake the lease
        #: requests it holds.
        self.on_change: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------
    # Worker-facing API (called from the HTTP routes)
    # ------------------------------------------------------------------
    def register(self, registration: WorkerRegistration) -> WorkerRegistered:
        """Add a worker to the roster and hand back its pool cadence."""
        worker_id = uuid.uuid4().hex[:12]
        now = time.monotonic()
        with self._cond:
            self._workers[worker_id] = WorkerInfo(
                worker_id=worker_id,
                name=registration.name,
                pid=registration.pid,
                host=registration.host,
                backend=registration.backend,
                registered_at=now,
                last_seen=now,
            )
            self._notify_locked()
        metrics().counter("service.workers_registered").add()
        log.info(
            "worker %s registered: %s (pid %d on %s, backend %s)",
            worker_id, registration.name, registration.pid,
            registration.host or "?", registration.backend,
        )
        return WorkerRegistered(
            worker_id=worker_id,
            lease_ttl_s=self.config.lease_ttl_s,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            poll_interval_s=self.config.poll_interval_s,
        )

    def deregister(self, worker_id: str) -> None:
        """Remove a worker; its held leases requeue immediately."""
        now = time.monotonic()
        with self._cond:
            worker = self._require_worker(worker_id)
            for chunk_id in sorted(worker.leases):
                chunk = self._chunks.get(chunk_id)
                if chunk is None or chunk.state != "leased":
                    continue
                chunk.leases.pop(worker_id, None)
                if not chunk.leases:
                    self._requeue_or_poison_locked(
                        chunk,
                        now,
                        failure={
                            "error": (
                                f"worker {worker.name} deregistered mid-chunk"
                            ),
                            "error_type": "WorkerGone",
                            "traceback": None,
                        },
                    )
            del self._workers[worker_id]
            self._notify_locked()
        log.info("worker %s deregistered", worker_id)

    @contextlib.contextmanager
    def holding(self, worker_id: str) -> Iterator[None]:
        """Count ``worker_id`` as live while its lease request is held.

        The front end holds an empty lease request for up to
        ``poll_interval_s`` without hearing from the worker; the worker
        must not turn ``lost`` meanwhile, nor may the local fallback
        take a job because every worker is waiting for one.
        """
        with self._cond:
            worker = self._require_worker(worker_id)
            worker.holds += 1
        try:
            yield
        finally:
            with self._cond:
                worker.holds -= 1

    def lease(self, worker_id: str) -> LeaseResponse:
        """Hand ``worker_id`` a chunk — requeued, carved, or speculated,
        in that order of preference."""
        now = time.monotonic()
        with self._cond:
            worker = self._require_worker(worker_id)
            self._touch_worker_locked(worker, now)
            if worker.state == "quarantined":
                return LeaseResponse(retry_after_s=self.config.poll_interval_s)
            picked = self._next_chunk_locked(worker, now)
            if picked is None:
                if not worker.leases:
                    worker.state = "idle"
                return LeaseResponse(retry_after_s=self._retry_hint_locked(now))
            chunk, speculative = picked
            chunk.state = "leased"
            chunk.attempts += 1
            chunk.leases[worker_id] = _Lease(
                worker_id, now, now + self.config.lease_ttl_s, speculative
            )
            worker.leases.add(chunk.chunk_id)
            worker.state = "busy"
            metrics().counter("service.chunks_dispatched").add()
            log.debug(
                "chunk %s leased to worker %s (attempt %d, %d points%s)",
                chunk.chunk_id, worker_id, chunk.attempts, len(chunk.items),
                ", speculative" if speculative else "",
            )
            return LeaseResponse(
                chunk=ChunkLease(
                    chunk_id=chunk.chunk_id,
                    job_id=chunk.job_id,
                    attempt=chunk.attempts,
                    requests=chunk.items,
                    lease_ttl_s=self.config.lease_ttl_s,
                    speculative=speculative,
                )
            )

    def heartbeat(
        self, worker_id: str, chunk_ids: Sequence[str] = ()
    ) -> HeartbeatAck:
        """Record liveness, extend held leases, flag + drop stale ids.

        A heartbeat also recovers a worker the reaper marked ``lost``
        and sheds leases the pool no longer tracks, so the roster never
        shows a heartbeating worker as lost or busy-on-nothing.
        """
        now = time.monotonic()
        with self._cond:
            worker = self._require_worker(worker_id)
            self._touch_worker_locked(worker, now)
            stale = []
            for chunk_id in chunk_ids:
                chunk = self._chunks.get(chunk_id)
                lease = (
                    chunk.leases.get(worker_id)
                    if chunk is not None and chunk.state == "leased"
                    else None
                )
                if lease is not None:
                    lease.expires_at = now + self.config.lease_ttl_s
                else:
                    stale.append(chunk_id)
                    worker.leases.discard(chunk_id)
            if not worker.leases and worker.state == "busy":
                worker.state = "idle"
            return HeartbeatAck(ok=True, stale=tuple(stale))

    def report(self, worker_id: str, report: ChunkReport) -> bool:
        """Resolve a chunk from a worker's report; False for duplicates."""
        now = time.monotonic()
        accepted_outcomes: Optional[list[PointOutcome]] = None
        with self._cond:
            worker = self._require_worker(worker_id)
            self._touch_worker_locked(worker, now)
            worker.leases.discard(report.chunk_id)
            if not worker.leases and worker.state == "busy":
                worker.state = "idle"
            chunk = self._chunks.get(report.chunk_id)
            if chunk is None or chunk.state == "done":
                metrics().counter("service.duplicate_results").add()
                log.debug(
                    "worker %s reported stale chunk %s — dropped",
                    worker_id, report.chunk_id,
                )
                return False
            chunk.leases.pop(worker_id, None)
            if report.failed is not None:
                self._record_worker_failure_locked(worker)
                self._fail_chunk_locked(
                    chunk, now, failure=dict(report.failed)
                )
                return True
            try:
                accepted_outcomes = self._rebuild_outcomes(chunk, report)
            except ProtocolError as exc:
                self._record_worker_failure_locked(worker)
                self._fail_chunk_locked(
                    chunk,
                    now,
                    failure={
                        "error": str(exc),
                        "error_type": "ProtocolError",
                        "traceback": None,
                    },
                )
                return True
            worker.chunks_completed += 1
            worker.points_completed += len(accepted_outcomes)
            if report.elapsed_s is not None and report.elapsed_s > 0.0:
                worker.timed_points += len(accepted_outcomes)
                worker.timed_s += report.elapsed_s
            self._resolve_locked(chunk, accepted_outcomes)
            metrics().counter("service.chunks_completed").add()
        absorb_telemetry(report.telemetry)
        return True

    # ------------------------------------------------------------------
    # Dispatcher API (called from the sweep service's job thread)
    # ------------------------------------------------------------------
    def run_distributed(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        fallback: Any,
        on_outcome: Optional[OutcomeFn] = None,
        job_id: str = "",
    ) -> list[PointOutcome]:
        """Fan ``items`` over the pool; block until every point resolves.

        Outcomes are delivered to ``on_outcome`` in resolution order
        and returned in input order — the standard
        :class:`~repro.engine.executor.ExecutionBackend` contract.
        Work is chunked lazily at lease time (sized to the live pool);
        chunks no live worker picks up run on ``fallback`` in this
        thread, so the call always terminates.
        """
        if not items:
            return []
        run = _RunState(fn, items, job_id)
        log.debug("distributing %d points", len(run.items))
        with self._cond:
            self._runs.append(run)
            self._notify_locked()
        try:
            self._drive(run, fallback, on_outcome)
        finally:
            with self._cond:
                self._runs.remove(run)
                for chunk in run.chunks:
                    self._chunks.pop(chunk.chunk_id, None)
                    for holder in list(chunk.leases):
                        holder_worker = self._workers.get(holder)
                        if holder_worker is not None:
                            holder_worker.leases.discard(chunk.chunk_id)
                            if (
                                not holder_worker.leases
                                and holder_worker.state == "busy"
                            ):
                                holder_worker.state = "idle"
                    chunk.leases.clear()

        assert all(outcome is not None for outcome in run.outcomes)
        return run.outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection (health endpoint)
    # ------------------------------------------------------------------
    def live_worker_count(self) -> int:
        """Workers currently eligible for leases."""
        with self._lock:
            return self._live_count_locked(time.monotonic())

    def roster(self) -> dict:
        """The ``/health`` ``workers`` section."""
        now = time.monotonic()
        with self._lock:
            entries = [
                w.roster_entry(now, self.config.lost_after_s)
                for w in sorted(self._workers.values(), key=lambda w: w.registered_at)
            ]
        by_state: dict[str, int] = {
            "idle": 0, "busy": 0, "quarantined": 0, "lost": 0
        }
        for entry in entries:
            by_state[entry["state"]] = by_state.get(entry["state"], 0) + 1
        return {
            "total": len(entries),
            "idle": by_state["idle"],
            "busy": by_state["busy"],
            "quarantined": by_state["quarantined"],
            "lost": by_state["lost"],
            "roster": entries,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drive(
        self,
        run: _RunState,
        fallback: Any,
        on_outcome: Optional[OutcomeFn],
    ) -> None:
        while True:
            local_chunk: Optional[_Chunk] = None
            deliver: list[PointOutcome] = []
            with self._cond:
                now = time.monotonic()
                self._reap_locked(now)
                while run.deliver:
                    deliver.append(run.deliver.popleft())
                if not deliver:
                    if run.done:
                        return
                    if not self._live_count_locked(now):
                        local_chunk = self._local_chunk_locked(run, now)
                    if local_chunk is None:
                        self._cond.wait(timeout=self.config.reap_tick_s)
            if on_outcome is not None:
                for outcome in deliver:
                    on_outcome(outcome)
            if local_chunk is not None:
                self._run_local(run, local_chunk, fallback)

    def _local_chunk_locked(
        self, run: _RunState, now: float
    ) -> Optional[_Chunk]:
        """Claim one chunk for the local fallback (pool empty/dead).

        Requeued chunks are taken backoff-and-all — with no live worker
        there is nobody to wait for — then fresh work is carved.
        """
        if run.pending:
            chunk = run.pending.popleft()
        elif run.next_index < len(run.items):
            chunk = self._carve_locked(run, now)
        else:
            return None
        chunk.state = "leased"
        chunk.attempts += 1
        chunk.leases[_LOCAL_HOLDER] = _Lease(_LOCAL_HOLDER, now, math.inf)
        return chunk

    def _run_local(self, run: _RunState, chunk: _Chunk, fallback: Any) -> None:
        """Evaluate a chunk on the server's own backend (pool empty/dead)."""
        log.debug(
            "chunk %s: no live workers, evaluating on local %s",
            chunk.chunk_id, fallback.describe(),
        )
        # The captured telemetry delta is discarded, not absorbed: the
        # fallback runs in *this* process, so its counters already
        # landed in the global registry (absorbing would double-count —
        # unlike worker reports, which arrive from other processes).
        outcomes, _telemetry = run_chunk(run.fn, chunk.pairs(), backend=fallback)
        metrics().counter("service.chunks_local_fallback").add()
        with self._cond:
            chunk.leases.pop(_LOCAL_HOLDER, None)
            if chunk.state != "done":
                self._resolve_locked(chunk, outcomes)

    def _next_chunk_locked(
        self, worker: WorkerInfo, now: float
    ) -> Optional[tuple[_Chunk, bool]]:
        """Pick the chunk for a lease request, in preference order:
        requeued work whose backoff elapsed, freshly carved work, a
        speculative duplicate of the longest-held in-flight chunk."""
        for run in self._runs:
            for _ in range(len(run.pending)):
                chunk = run.pending.popleft()
                if chunk.not_before <= now:
                    return chunk, False
                run.pending.append(chunk)
        for run in self._runs:
            if run.next_index < len(run.items):
                return self._carve_locked(run, now), False
        target = self._speculation_target_locked(worker, now)
        if target is None:
            return None
        metrics().counter("service.leases_speculated").add()
        log.debug(
            "chunk %s: speculative duplicate lease for worker %s",
            target.chunk_id, worker.worker_id,
        )
        return target, True

    def _carve_locked(self, run: _RunState, now: float) -> _Chunk:
        """Cut the next chunk off the run's carve cursor, sized for the
        live pool right now."""
        remaining = len(run.items) - run.next_index
        size = self._lease_size_locked(remaining, now)
        indices = range(run.next_index, run.next_index + size)
        items = run.items[run.next_index : run.next_index + size]
        run.next_index += size
        chunk = _Chunk(
            chunk_id=_chunk_id_for(len(run.chunks), items),
            job_id=run.job_id,
            indices=indices,
            items=items,
            run=run,
        )
        run.chunks.append(chunk)
        self._chunks[chunk.chunk_id] = chunk
        return chunk

    def _lease_size_locked(self, remaining: int, now: float) -> int:
        """Points for the next lease: an equal share of the live pool."""
        if self.config.chunk_size is not None:
            return min(remaining, max(1, self.config.chunk_size))
        live = max(1, self._live_count_locked(now))
        return min(remaining, math.ceil(remaining / (CHUNKS_PER_WORKER * live)))

    def _speculation_target_locked(
        self, worker: WorkerInfo, now: float
    ) -> Optional[_Chunk]:
        """The in-flight chunk ``worker`` should duplicate, if any —
        the longest-held lease with spare lease capacity (the job-tail
        straggler)."""
        best: Optional[_Chunk] = None
        best_age = -1.0
        for run in self._runs:
            for chunk in run.chunks:
                if chunk.state != "leased":
                    continue
                if worker.worker_id in chunk.leases:
                    continue
                if len(chunk.leases) >= MAX_LEASES_PER_CHUNK:
                    continue
                age = chunk.oldest_lease_age(now)
                if age < self.config.tail_min_lease_age_s:
                    continue
                if age > best_age:
                    best, best_age = chunk, age
        return best

    def _notify_locked(self) -> None:
        """Wake the dispatcher and the lease requests being held."""
        self._cond.notify_all()
        self.on_change()

    def _touch_worker_locked(self, worker: WorkerInfo, now: float) -> None:
        """Record contact; a ``lost`` worker that reaches us is back."""
        worker.last_seen = now
        if worker.state == "lost":
            worker.state = "busy" if worker.leases else "idle"

    def _retry_hint_locked(self, now: float) -> float:
        """How long an empty-handed worker should sleep before repolling.

        When pending chunks exist but are all backoff-blocked, the hint
        is the actual wait until the earliest becomes eligible — not
        the generic poll interval, which would make workers sleep past
        (or hammer before) chunk eligibility.
        """
        earliest: Optional[float] = None
        for run in self._runs:
            for chunk in run.pending:
                if earliest is None or chunk.not_before < earliest:
                    earliest = chunk.not_before
        if earliest is None:
            return self.config.poll_interval_s
        return max(0.01, earliest - now)

    def _require_worker(self, worker_id: str) -> WorkerInfo:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise ProtocolError(
                f"unknown worker id {worker_id!r} (re-register)", status=404
            )
        return worker

    def _live_count_locked(self, now: float) -> int:
        return sum(
            1
            for w in self._workers.values()
            if w.live(now, self.config.lost_after_s)
        )

    def _reap_locked(self, now: float) -> None:
        for run in self._runs:
            for chunk in run.chunks:
                if chunk.state != "leased":
                    continue
                expired = [
                    (holder, lease)
                    for holder, lease in chunk.leases.items()
                    if lease.expires_at < now
                ]
                for holder, _lease in expired:
                    chunk.leases.pop(holder, None)
                    worker = self._workers.get(holder)
                    name = worker.name if worker is not None else "<gone>"
                    metrics().counter("service.leases_expired").add()
                    log.warning(
                        "lease on chunk %s expired (worker %s, attempt %d)",
                        chunk.chunk_id, name, chunk.attempts,
                    )
                    if worker is not None:
                        worker.leases.discard(chunk.chunk_id)
                        if not worker.leases and worker.state == "busy":
                            worker.state = "idle"
                        self._record_worker_failure_locked(worker)
                if expired and not chunk.leases:
                    holder_names = ", ".join(
                        (
                            self._workers[h].name
                            if h in self._workers
                            else "<gone>"
                        )
                        for h, _ in expired
                    )
                    self._fail_chunk_locked(
                        chunk,
                        now,
                        failure={
                            "error": (
                                f"lease expired after "
                                f"{self.config.lease_ttl_s:g}s on worker "
                                f"{holder_names} (attempt {chunk.attempts})"
                            ),
                            "error_type": "LeaseExpired",
                            "traceback": None,
                        },
                    )
        # Mark silent workers lost so the roster tells the truth even
        # before their leases expire; any later contact (heartbeat /
        # lease / report) recovers them via _touch_worker_locked.
        for worker in self._workers.values():
            if worker.state in ("idle", "busy") and worker.silent(
                now, self.config.lost_after_s
            ):
                worker.state = "lost"

    def _record_worker_failure_locked(self, worker: WorkerInfo) -> None:
        worker.chunks_failed += 1
        if (
            worker.state != "quarantined"
            and worker.chunks_failed >= self.config.quarantine_after
        ):
            worker.state = "quarantined"
            worker.leases.clear()
            metrics().counter("service.workers_quarantined").add()
            log.warning(
                "worker %s quarantined after %d chunk failures",
                worker.worker_id, worker.chunks_failed,
            )

    def _fail_chunk_locked(
        self,
        chunk: _Chunk,
        now: float,
        *,
        failure: dict,
    ) -> None:
        """Record a failed attempt; requeue, poison, or — when another
        lease is still in flight (a speculative copy) — let it ride."""
        chunk.failures.append(failure)
        metrics().counter("service.chunks_failed").add()
        if chunk.leases:
            # A surviving (speculative or original) holder is still
            # evaluating this chunk — no requeue needed yet.
            return
        self._requeue_or_poison_locked(chunk, now)

    def _requeue_or_poison_locked(
        self,
        chunk: _Chunk,
        now: float,
        *,
        failure: Optional[dict] = None,
    ) -> None:
        if failure is not None:
            chunk.failures.append(failure)
            metrics().counter("service.chunks_failed").add()
        if len(chunk.failures) >= self.config.max_attempts:
            last = chunk.failures[-1]
            outcomes = [
                PointOutcome(
                    index=index,
                    error=(
                        f"poison chunk {chunk.chunk_id}: failed "
                        f"{len(chunk.failures)} attempts; last: "
                        f"{last.get('error')}"
                    ),
                    error_type=last.get("error_type") or "PoisonChunk",
                    traceback=last.get("traceback"),
                )
                for index in chunk.indices
            ]
            metrics().counter("service.chunks_poisoned").add()
            log.error(
                "chunk %s poisoned after %d attempts: %s",
                chunk.chunk_id, len(chunk.failures), last.get("error"),
            )
            self._resolve_locked(chunk, outcomes)
            return
        backoff = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** (len(chunk.failures) - 1)),
        )
        jitter = random.Random(f"{chunk.chunk_id}:{len(chunk.failures)}")
        chunk.not_before = now + backoff * (0.75 + 0.5 * jitter.random())
        if chunk.state != "pending":
            # A late failure report on a requeued chunk only re-arms
            # its backoff; queueing it twice would lease it twice.
            chunk.state = "pending"
            chunk.run.pending.append(chunk)
            metrics().counter("service.chunks_reassigned").add()
        self._notify_locked()

    def _resolve_locked(
        self, chunk: _Chunk, outcomes: list[PointOutcome]
    ) -> None:
        """Resolve ``chunk``; the first outcome per point wins (the
        exactly-once guard)."""
        run = chunk.run
        if chunk.state == "pending":
            # A late report resolved a requeued chunk: dequeue it, or
            # the next lease would evaluate it a second time.
            run.pending.remove(chunk)
        for outcome in outcomes:
            if run.outcomes[outcome.index] is None:
                run.outcomes[outcome.index] = outcome
                run.resolved += 1
                run.deliver.append(outcome)
        chunk.state = "done"
        for holder in list(chunk.leases):
            holder_worker = self._workers.get(holder)
            if holder_worker is not None:
                holder_worker.leases.discard(chunk.chunk_id)
                if not holder_worker.leases and holder_worker.state == "busy":
                    holder_worker.state = "idle"
        chunk.leases.clear()
        self._notify_locked()

    @staticmethod
    def _rebuild_outcomes(
        chunk: _Chunk, report: ChunkReport
    ) -> list[PointOutcome]:
        """Turn wire records back into outcomes with the chunk's indices."""
        if len(report.outcomes) != len(chunk.items):
            raise ProtocolError(
                f"chunk {chunk.chunk_id} report has {len(report.outcomes)} "
                f"outcomes, expected {len(chunk.items)}"
            )
        outcomes: list[Optional[PointOutcome]] = [None] * len(chunk.items)
        for record in report.outcomes:
            local = record["index"]
            if not 0 <= local < len(chunk.items) or outcomes[local] is not None:
                raise ProtocolError(
                    f"chunk {chunk.chunk_id} report has bad/duplicate "
                    f"local index {local}"
                )
            global_index = chunk.indices[local]
            if "result" in record:
                try:
                    value = result_from_dict(record["result"])
                except Exception as exc:  # noqa: BLE001 — wire payload is untrusted
                    raise ProtocolError(
                        f"chunk {chunk.chunk_id} outcome {local} does not "
                        f"deserialize: {exc}"
                    ) from exc
                outcomes[local] = PointOutcome(index=global_index, value=value)
            else:
                outcomes[local] = PointOutcome(
                    index=global_index,
                    error=record.get("error", "remote point failed"),
                    error_type=record.get("error_type", "Exception"),
                    traceback=record.get("traceback"),
                )
        return outcomes  # type: ignore[return-value]


class DistributedBackend:
    """Execution backend fronting the pool, with a guaranteed fallback.

    Wraps the sweep service's local backend: batches the wire format
    can carry go through :meth:`WorkerPool.run_distributed` (which
    itself falls back chunk-by-chunk when the pool is empty); anything
    else runs directly on the local backend.  ``describe()`` reports
    the plain fallback label while no worker is live, so single-host
    deployments keep their exact PR 7 reports/manifests.
    """

    def __init__(self, pool: WorkerPool, fallback: Any) -> None:
        self.pool = pool
        self.fallback = fallback
        #: Job id stamped onto chunks (set by the sweep service before
        #: each job runs; purely informational for workers/logs).
        self.job_id = ""

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Fan a batch over the pool, or run locally when it can't ship."""
        if not items:
            return []
        if not wire_dispatchable(fn, items):
            log.debug(
                "distributed backend: batch not wire-serializable, "
                "running on local %s", self.fallback.describe(),
            )
            return self.fallback.run(fn, items, on_outcome=on_outcome)
        return self.pool.run_distributed(
            fn,
            items,
            fallback=self.fallback,
            on_outcome=on_outcome,
            job_id=self.job_id,
        )

    def describe(self) -> str:
        """Pool-aware backend label (plain fallback label when empty)."""
        live = self.pool.live_worker_count()
        if live == 0:
            return self.fallback.describe()
        return f"pool(workers={live})+{self.fallback.describe()}"
