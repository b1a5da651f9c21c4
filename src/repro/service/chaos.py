"""Fault injection for the worker pool: deterministic, opt-in chaos.

The fault-tolerance machinery in :mod:`repro.service.pool` is only
trustworthy if it is exercised — this module provides the injected
faults. A :class:`ChaosConfig` rides inside a
:class:`~repro.service.worker.ServiceWorker` and fires at well-defined
hook points in the chunk lifecycle:

* **kill** — terminate the worker *mid-chunk* (after the lease is
  granted, before the result is reported), either by raising
  :class:`ChaosKill` (in-process test workers) or via ``os._exit``
  (real CLI worker processes). The server sees a vanished worker: the
  lease expires and the chunk is reassigned.
* **heartbeat delay** — stretch the gap between heartbeats past the
  lease TTL so the server reassigns a chunk the worker is still
  evaluating (exercises the duplicate-result path).
* **drop result** — evaluate a chunk but never report it (a lost
  response on the wire); the lease expires and the chunk is
  reassigned.
* **slow worker** — sleep a fixed delay inside every chunk evaluation
  (while the heartbeat sidecar keeps the lease alive). The worker is a
  *straggler*, not a corpse: the scheduler must route around it with
  tail speculation rather than lease expiry.
* **corrupt chunk** — deterministically fail the evaluation of
  selected chunks, reported as a chunk-level failure with a traceback.
  Selection is seeded by ``(seed, chunk_id)`` — chunk ids are
  content-addressed, so the *same* chunk fails on every worker and on
  every retry, which is exactly the poison-chunk scenario the server
  must cap with a :class:`~repro.engine.batch.PointError` instead of
  retrying forever.

Everything is off unless explicitly enabled — the default
:class:`ChaosConfig` is inert, and :meth:`ChaosConfig.from_env` only
arms hooks for which a ``REPRO_CHAOS_*`` variable is set:

========================================  =====================================
``REPRO_CHAOS_KILL_AFTER_CHUNKS=N``       die mid-chunk after N completed chunks
``REPRO_CHAOS_HEARTBEAT_DELAY_S=X``       add X seconds before every heartbeat
``REPRO_CHAOS_CHUNK_DELAY_S=X``           add X seconds inside every evaluation
``REPRO_CHAOS_DROP_RESULTS=N``            swallow the first N chunk reports
``REPRO_CHAOS_CORRUPT_SEED=S``            arm seeded chunk corruption
``REPRO_CHAOS_CORRUPT_ONE_IN=K``          corrupt ~1/K of chunks (default 1)
========================================  =====================================
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Mapping, Optional

__all__ = ["ChaosConfig", "ChaosCorruption", "ChaosKill"]


class ChaosKill(BaseException):
    """Raised to simulate sudden worker death in in-process workers.

    Derives from :class:`BaseException` so it cannot be swallowed by
    the per-point ``except Exception`` capture — a killed worker must
    not produce outcomes, exactly like a SIGKILLed process.
    """


class ChaosCorruption(RuntimeError):
    """The injected evaluation failure reported for a corrupted chunk."""


class ChaosConfig:
    """Armed fault hooks for one worker; inert by default.

    Thread-safe: the drop counter is consumed under a lock (the worker
    loop and its heartbeat thread never share hooks, but two in-process
    workers must not share one config's mutable state — give each its
    own instance).
    """

    def __init__(
        self,
        *,
        kill_after_chunks: Optional[int] = None,
        heartbeat_delay_s: float = 0.0,
        chunk_delay_s: float = 0.0,
        drop_results: int = 0,
        corrupt_seed: Optional[int] = None,
        corrupt_one_in: int = 1,
        kill_mode: str = "raise",
    ) -> None:
        if kill_mode not in ("raise", "exit"):
            raise ValueError(f"kill_mode must be 'raise' or 'exit', got {kill_mode!r}")
        if corrupt_one_in < 1:
            raise ValueError(f"corrupt_one_in must be >= 1, got {corrupt_one_in}")
        self.kill_after_chunks = kill_after_chunks
        self.heartbeat_delay_s = float(heartbeat_delay_s)
        self.chunk_delay_s = float(chunk_delay_s)
        self.corrupt_seed = corrupt_seed
        self.corrupt_one_in = int(corrupt_one_in)
        self.kill_mode = kill_mode
        self._drops_left = int(drop_results)
        self._lock = threading.Lock()

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, *, kill_mode: str = "exit"
    ) -> "ChaosConfig":
        """Build a config from ``REPRO_CHAOS_*`` variables (inert if unset)."""
        env = os.environ if environ is None else environ

        def _get(name: str) -> Optional[str]:
            value = env.get(name, "").strip()
            return value or None

        kill = _get("REPRO_CHAOS_KILL_AFTER_CHUNKS")
        seed = _get("REPRO_CHAOS_CORRUPT_SEED")
        return cls(
            kill_after_chunks=int(kill) if kill is not None else None,
            heartbeat_delay_s=float(_get("REPRO_CHAOS_HEARTBEAT_DELAY_S") or 0.0),
            chunk_delay_s=float(_get("REPRO_CHAOS_CHUNK_DELAY_S") or 0.0),
            drop_results=int(_get("REPRO_CHAOS_DROP_RESULTS") or 0),
            corrupt_seed=int(seed) if seed is not None else None,
            corrupt_one_in=int(_get("REPRO_CHAOS_CORRUPT_ONE_IN") or 1),
            kill_mode=kill_mode,
        )

    @property
    def armed(self) -> bool:
        """True when any hook can fire."""
        return (
            self.kill_after_chunks is not None
            or self.heartbeat_delay_s > 0.0
            or self.chunk_delay_s > 0.0
            or self._drops_left > 0
            or self.corrupt_seed is not None
        )

    # ------------------------------------------------------------------
    # Hook points (called by ServiceWorker)
    # ------------------------------------------------------------------
    def maybe_kill(self, chunks_completed: int) -> None:
        """Die mid-chunk once ``chunks_completed`` reaches the threshold.

        ``kill_after_chunks=0`` dies during the very first chunk.
        """
        if self.kill_after_chunks is None:
            return
        if chunks_completed < self.kill_after_chunks:
            return
        if self.kill_mode == "exit":  # pragma: no cover — kills the test runner
            os._exit(137)
        raise ChaosKill(
            f"chaos: worker killed mid-chunk after {chunks_completed} chunks"
        )

    def should_corrupt(self, chunk_id: str) -> bool:
        """Seeded, chunk-id-keyed corruption — stable across retries/workers."""
        if self.corrupt_seed is None:
            return False
        rng = random.Random(f"{self.corrupt_seed}:{chunk_id}")
        return rng.randrange(self.corrupt_one_in) == 0

    def corrupt(self, chunk_id: str) -> None:
        """Raise the deterministic injected failure for ``chunk_id``."""
        raise ChaosCorruption(
            f"chaos: chunk {chunk_id[:12]} corrupted "
            f"(seed={self.corrupt_seed}, one_in={self.corrupt_one_in})"
        )

    def take_drop(self) -> bool:
        """Consume one drop token; True means swallow this chunk report."""
        with self._lock:
            if self._drops_left <= 0:
                return False
            self._drops_left -= 1
            return True

    def heartbeat_sleep_s(self, interval_s: float) -> float:
        """The (possibly stretched) gap before the next heartbeat."""
        return interval_s + self.heartbeat_delay_s

    def chunk_sleep(self, stop: Optional[threading.Event] = None) -> None:
        """Straggle: sleep the configured delay inside a chunk evaluation.

        Interruptible via ``stop`` so a slowed worker still exits
        promptly when asked.
        """
        if self.chunk_delay_s <= 0.0:
            return
        if stop is not None:
            stop.wait(timeout=self.chunk_delay_s)
        else:
            time.sleep(self.chunk_delay_s)
