"""The pull-side worker: lease chunks, heartbeat, evaluate, report.

:class:`ServiceWorker` is the peer process behind
``repro-experiments work --server URL``.  It is deliberately
*stateless*: it registers with the sweep service, then loops —

1. ``POST /workers/<id>/lease`` — ask for a chunk of a job's cache
   misses (the server holds the request until a chunk can be leased,
   or for at most the pool's ``poll_interval_s``; an empty answer is
   simply asked again);
2. evaluate the chunk through the engine's shared chunk protocol
   (:func:`repro.engine.executor.run_chunk` with ``evaluate_auto`` on
   its local backend), while a sidecar thread heartbeats so the
   server keeps the lease alive past its TTL;
3. ``POST /workers/<id>/result`` — ship the per-point outcomes plus
   the captured telemetry delta back, exactly the payload a local
   process-pool worker hands its parent.

All fault handling lives server-side (leases, retries, quarantine) —
a worker that dies mid-chunk simply stops heartbeating.  The
:class:`~repro.service.chaos.ChaosConfig` hooks let tests and the CI
chaos job inject precisely those deaths, delays, drops, and
corruptions; an inert config (the default) adds zero overhead.

The worker survives server restarts: on a 404 (the restarted server
does not know its id) it re-registers and keeps pulling.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
import traceback as traceback_module
from typing import Any, Optional

from ..engine.batch import evaluate_auto
from ..engine.executor import SerialBackend, run_chunk
from .chaos import ChaosConfig
from .client import ServiceClient, ServiceError
from .protocol import ChunkLease, ChunkReport, chunk_outcome_to_dict

__all__ = ["ServiceWorker"]

log = logging.getLogger(__name__)


class ServiceWorker:
    """One worker process/thread attached to a sweep service.

    Parameters
    ----------
    url:
        Base URL of the sweep service.
    backend:
        Local execution backend leased chunks are evaluated on
        (default: a fresh :class:`~repro.engine.executor.SerialBackend`).
    name:
        Roster label; defaults to ``<host>:<pid>``.
    chaos:
        Fault-injection hooks (inert by default; see
        :mod:`repro.service.chaos`).
    max_chunks:
        Stop cleanly after this many completed chunks (``None`` = run
        until :meth:`stop`).  Used by tests and bounded CI runs.

    :meth:`stop` takes effect after the current chunk, or once the
    server answers the lease request it is holding.
    """

    def __init__(
        self,
        url: str,
        *,
        backend: Optional[Any] = None,
        name: Optional[str] = None,
        chaos: Optional[ChaosConfig] = None,
        client: Optional[ServiceClient] = None,
        max_chunks: Optional[int] = None,
    ) -> None:
        self.client = client if client is not None else ServiceClient(url)
        self.backend = backend if backend is not None else SerialBackend()
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.chaos = chaos if chaos is not None else ChaosConfig()
        self.max_chunks = max_chunks
        self.worker_id: Optional[str] = None
        self.chunks_completed = 0
        self.chunks_failed = 0
        self._stop = threading.Event()
        self._heartbeat_interval = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the worker loop to exit after the current chunk."""
        self._stop.set()

    def run(self) -> int:
        """Register and pull chunks until stopped; returns chunks done.

        Exits cleanly (deregistering) on :meth:`stop` or when
        ``max_chunks`` is reached; a chaos kill propagates without
        deregistering — the server must notice via the missed
        heartbeats, exactly like a SIGKILLed process.
        """
        self._register()
        log.info(
            "worker %s (%s) pulling from %s on backend %s",
            self.worker_id, self.name, self.client.url, self.backend.describe(),
        )
        while not self._stop.is_set():
            if (
                self.max_chunks is not None
                and self.chunks_completed >= self.max_chunks
            ):
                break
            try:
                lease = self.client.lease_chunk(self.worker_id)
            except ServiceError as exc:
                if exc.status == 404:
                    log.info(
                        "worker %s unknown to server (restart?) — "
                        "re-registering", self.worker_id,
                    )
                    self._register()
                    continue
                raise
            if lease.chunk is not None:
                self._process(lease.chunk)
        # Reached only on a clean exit (stop() or max_chunks): a chaos
        # kill or crash must propagate WITHOUT deregistering, so the
        # server notices the death via missed heartbeats, not a
        # graceful handoff.
        self._deregister()
        return self.chunks_completed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self) -> None:
        registered = self.client.register_worker(
            name=self.name,
            pid=os.getpid(),
            host=socket.gethostname(),
            backend=self.backend.describe(),
        )
        self.worker_id = registered.worker_id
        self._heartbeat_interval = registered.heartbeat_interval_s

    def _deregister(self) -> None:
        if self.worker_id is None:
            return
        try:
            self.client.deregister_worker(self.worker_id)
        except ServiceError:
            log.debug("worker %s: deregister failed (server gone?)", self.worker_id)

    def _process(self, chunk: ChunkLease) -> None:
        """Evaluate one leased chunk and report it (chaos hooks inline)."""
        log.debug(
            "worker %s: chunk %s (%d points, attempt %d)",
            self.worker_id, chunk.chunk_id, len(chunk.requests), chunk.attempt,
        )
        if self.chaos.should_corrupt(chunk.chunk_id):
            self.chunks_failed += 1
            self._report_corrupt(chunk)
            return

        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(chunk.chunk_id, stop_heartbeat),
            name=f"heartbeat-{chunk.chunk_id[:8]}",
            daemon=True,
        )
        heartbeat.start()
        try:
            self.chaos.maybe_kill(self.chunks_completed)
            # The chaos slow-down sleeps inside the timed window (the
            # heartbeat sidecar keeps the lease alive), so a slowed
            # worker *measures* as slow in the roster's throughput.
            started = time.perf_counter()
            self.chaos.chunk_sleep(self._stop)
            outcomes, telemetry = run_chunk(
                evaluate_auto,
                list(enumerate(chunk.requests)),
                backend=self.backend,
            )
            elapsed_s = time.perf_counter() - started
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=5.0)

        if self.chaos.take_drop():
            log.debug(
                "worker %s: chaos dropped report for chunk %s",
                self.worker_id, chunk.chunk_id,
            )
            return
        report = ChunkReport(
            chunk_id=chunk.chunk_id,
            outcomes=tuple(chunk_outcome_to_dict(o) for o in outcomes),
            telemetry=telemetry,
            elapsed_s=elapsed_s,
        )
        if self.client.report_chunk(self.worker_id, report):
            self.chunks_completed += 1
        else:
            log.debug(
                "worker %s: report for chunk %s was stale (reassigned)",
                self.worker_id, chunk.chunk_id,
            )

    def _report_corrupt(self, chunk: ChunkLease) -> None:
        """Report the injected chunk-level failure, traceback included."""
        failed = {}
        try:
            self.chaos.corrupt(chunk.chunk_id)
        except Exception as exc:  # noqa: BLE001 — building the failure record
            failed = {
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback_module.format_exc(),
            }
        self.client.report_chunk(
            self.worker_id,
            ChunkReport(chunk_id=chunk.chunk_id, failed=failed),
        )

    def _heartbeat_loop(self, chunk_id: str, stop: threading.Event) -> None:
        """Sidecar: re-arm the lease every interval while evaluating."""
        while not stop.wait(
            timeout=self.chaos.heartbeat_sleep_s(self._heartbeat_interval)
        ):
            try:
                ack = self.client.heartbeat(self.worker_id, [chunk_id])
            except ServiceError as exc:
                log.debug(
                    "worker %s: heartbeat failed (%s) — will retry",
                    self.worker_id, exc,
                )
                continue
            if chunk_id in ack.stale:
                log.debug(
                    "worker %s: chunk %s went stale under us",
                    self.worker_id, chunk_id,
                )
                return
