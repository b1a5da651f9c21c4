"""Batch evaluation: dedup → cache lookup → parallel evaluate → store.

:class:`BatchRunner` is the engine's front door. It takes a list of
:class:`EvalRequest` (one per grid point), fingerprints each, collapses
duplicates, serves what it can from the :class:`ResultCache`, fans the
misses out over an :class:`ExecutionBackend`, stores fresh results, and
scatters everything back into **input order**. One runner (hence one
cache) is shared across a whole campaign, so identical scenario points
requested by different figures are evaluated exactly once.

A per-point failure becomes a :class:`PointError` in the report rather
than an exception; callers that want to abort on any failed point
call :meth:`BatchReport.raise_on_error`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..core.metrics import evaluate, evaluate_survivability, resolve_network
from ..core.optimizer import TradeoffPoint
from ..core.results import GCSResult, SurvivabilityResult
from ..errors import ExperimentError, ParameterError
from ..manet.network import NetworkModel
from ..obs import metrics, span
from ..obs.runtime import record_batch_report
from ..params import GCSParameters
from ..validation import require_sorted_unique
from .cache import CacheableResult, ResultCache
from .executor import ExecutionBackend, SerialBackend, make_backend
from .keys import params_from_dict, scenario_fingerprint

log = logging.getLogger(__name__)

__all__ = [
    "EvalRequest",
    "SurvivabilityRequest",
    "PointError",
    "BatchReport",
    "BatchResult",
    "BatchRunner",
    "evaluate_auto",
    "network_from_dict",
    "network_to_dict",
    "request_from_dict",
    "request_to_dict",
    "make_runner",
    "run_tids_sweep",
]


@dataclass(frozen=True)
class EvalRequest:
    """One scenario point to evaluate.

    ``network=None`` resolves the network from the parameters inside the
    worker (deterministic for analytic / explicit-rate scenarios);
    passing a resolved model shares one mobility measurement across the
    batch exactly like :class:`~repro.core.scenario.Scenario` does.
    """

    params: GCSParameters
    network: Optional[NetworkModel] = None
    method: str = "fast"
    include_breakdown: bool = False
    include_variance: bool = False

    def fingerprint(self) -> str:
        """Content-addressed cache key for this request."""
        return scenario_fingerprint(
            self.params,
            network=self.network,
            method=self.method,
            options={
                "include_breakdown": self.include_breakdown,
                "include_variance": self.include_variance,
            },
        )


def evaluate_request(request: EvalRequest) -> GCSResult:
    """Evaluate one request (module level: process pools pickle it)."""
    return evaluate(
        request.params,
        request.network,
        method=request.method,
        include_breakdown=request.include_breakdown,
        include_variance=request.include_variance,
    )


@dataclass(frozen=True)
class SurvivabilityRequest:
    """One scenario point's survivability curve over a mission-time grid.

    The engine's second first-class request type: evaluated by
    :func:`evaluate_survivability_request` (a one-point batch) or —
    when a whole batch of them reaches the
    :class:`~repro.engine.executor.VectorBackend` — by one
    structure-sharing
    :func:`~repro.core.metrics.evaluate_survivability_batch_outcomes`
    sweep; both give the same bytes. The fingerprint extends the
    scenario key with the time grid and the truncation ``eps``, so
    curves over different grids never collide in the shared result
    cache while identical sweep requests dedup exactly like model
    evaluations.
    """

    params: GCSParameters
    times_s: tuple[float, ...]
    network: Optional[NetworkModel] = None
    eps: float = 1e-12

    def __post_init__(self) -> None:
        object.__setattr__(self, "times_s", tuple(float(t) for t in self.times_s))

    def fingerprint(self) -> str:
        """Content-addressed cache key (scenario + time grid + ``eps``)."""
        return scenario_fingerprint(
            self.params,
            network=self.network,
            method="survivability",
            options={"times_s": list(self.times_s), "eps": self.eps},
        )


def evaluate_survivability_request(
    request: SurvivabilityRequest,
) -> SurvivabilityResult:
    """Evaluate one survivability request (module level: picklable)."""
    return evaluate_survivability(
        request.params,
        request.network,
        times=request.times_s,
        eps=request.eps,
    )


def evaluate_auto(
    request: "EvalRequest | SurvivabilityRequest",
) -> CacheableResult:
    """Evaluate either request kind by dispatching on its type.

    The sweep service receives mixed-kind batches over the wire and
    hands them all to one :meth:`BatchRunner.run` call, which takes a
    single ``evaluate`` callable — this is that callable. Module-level
    (and so picklable) like the kind-specific evaluators, and
    recognised by :class:`~repro.engine.executor.VectorBackend` so
    homogeneous batches still take the structure-sharing batched
    solvers.
    """
    if isinstance(request, SurvivabilityRequest):
        return evaluate_survivability_request(request)
    return evaluate_request(request)


# ---------------------------------------------------------------------------
# Wire-format (de)serialisation — the service protocol's chunk specs
# ---------------------------------------------------------------------------

def network_to_dict(network: Optional[NetworkModel]) -> Optional[dict]:
    """JSON-ready form of an explicit network model (``None`` passes through).

    The inverse of :func:`network_from_dict`. Mirrors the fields of
    :func:`repro.engine.keys.network_signature` — everything that
    influences evaluation results crosses the wire.
    """
    if network is None:
        return None
    import dataclasses

    return {
        "params": dataclasses.asdict(network.params),
        "avg_hops": network.avg_hops,
        "partition_rate_hz": network.partition_rate_hz,
        "merge_rate_hz": network.merge_rate_hz,
        "measured": network.measured,
    }


def network_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[NetworkModel]:
    """Rebuild an explicit :class:`NetworkModel` from its wire form."""
    if data is None:
        return None
    from ..params import NetworkParameters

    try:
        return NetworkModel(
            params=NetworkParameters(**data["params"]),
            avg_hops=float(data["avg_hops"]),
            partition_rate_hz=float(data["partition_rate_hz"]),
            merge_rate_hz=float(data["merge_rate_hz"]),
            measured=bool(data.get("measured", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed network record: {exc}") from exc


def _canonical_network(
    params: GCSParameters, network: Optional[NetworkModel]
) -> Optional[NetworkModel]:
    """Collapse an explicit network equal to the params-resolved one.

    Same canonicalisation the fingerprint applies: a
    :class:`~repro.core.scenario.Scenario`'s shared analytic model *is*
    what the parameters resolve to, so it serialises as ``None`` and the
    receiving side re-resolves it — bit-identical, and the wire format
    stays small.
    """
    if network is not None and network == resolve_network(params, None):
        return None
    return network


def request_to_dict(request: "EvalRequest | SurvivabilityRequest") -> dict:
    """JSON-ready form of an engine request (the service wire format).

    Dispatches on the request type via a ``"kind"`` field
    (``"eval"`` / ``"survivability"``), exactly like cached results
    dispatch in :func:`repro.engine.cache.result_from_dict`. The
    inverse is :func:`request_from_dict`; the round-trip preserves the
    fingerprint (asserted by the protocol tests).
    """
    if isinstance(request, SurvivabilityRequest):
        return {
            "kind": "survivability",
            "params": request.params.to_dict(),
            "network": network_to_dict(
                _canonical_network(request.params, request.network)
            ),
            "times_s": list(request.times_s),
            "eps": request.eps,
        }
    return {
        "kind": "eval",
        "params": request.params.to_dict(),
        "network": network_to_dict(
            _canonical_network(request.params, request.network)
        ),
        "method": request.method,
        "include_breakdown": request.include_breakdown,
        "include_variance": request.include_variance,
    }


def request_from_dict(
    data: Mapping[str, Any],
) -> "EvalRequest | SurvivabilityRequest":
    """Rebuild an engine request from its :func:`request_to_dict` form.

    Raises :class:`~repro.errors.ParameterError` on any malformed
    payload — the service maps that onto a 400 response instead of a
    traceback.
    """
    try:
        kind = data.get("kind", "eval")
        if kind == "survivability":
            return SurvivabilityRequest(
                params=params_from_dict(data["params"]),
                times_s=tuple(float(t) for t in data["times_s"]),
                network=network_from_dict(data.get("network")),
                eps=float(data.get("eps", 1e-12)),
            )
        if kind != "eval":
            raise ParameterError(f"unknown request kind {kind!r}")
        return EvalRequest(
            params=params_from_dict(data["params"]),
            network=network_from_dict(data.get("network")),
            method=str(data.get("method", "fast")),
            include_breakdown=bool(data.get("include_breakdown", False)),
            include_variance=bool(data.get("include_variance", False)),
        )
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"malformed request record: {exc}") from exc


@dataclass(frozen=True)
class PointError:
    """A captured per-point evaluation failure.

    ``traceback`` carries the formatted traceback from the process that
    raised (possibly a pool worker) so failures are diagnosable from a
    run manifest without re-running the point.
    """

    index: int
    request: "EvalRequest | SurvivabilityRequest"
    error: str
    error_type: str
    traceback: Optional[str] = None

    def __str__(self) -> str:
        return (
            f"point {self.index} ({self.request.params.describe()}): "
            f"{self.error_type}: {self.error}"
        )

    def as_dict(self) -> dict:
        """JSON-ready record for manifests and service payloads."""
        return {
            "index": self.index,
            "params": self.request.params.describe(),
            "error_type": self.error_type,
            "error": self.error,
            "traceback": self.traceback,
        }


@dataclass
class BatchReport:
    """Where each point of a batch came from, and how long it took."""

    n_requested: int = 0
    n_unique: int = 0
    n_cache_hits: int = 0
    n_evaluated: int = 0
    errors: list[PointError] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backend: str = "serial"
    #: Wall time per pipeline phase: ``dedup``, ``cache_lookup``,
    #: ``evaluate``, ``store`` (seconds; always all four keys).
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def n_errors(self) -> int:
        """Number of points that failed."""
        return len(self.errors)

    @property
    def n_deduplicated(self) -> int:
        """Requests served by another identical request in the same batch."""
        return self.n_requested - self.n_unique

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of unique points served from the cache."""
        return self.n_cache_hits / self.n_unique if self.n_unique else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of *requested* points that never hit the backend —
        served by the cache or by batch-level deduplication."""
        if not self.n_requested:
            return 0.0
        attempted = self.n_evaluated + self.n_errors
        return 1.0 - attempted / self.n_requested

    def raise_on_error(self) -> None:
        """Raise :class:`ExperimentError` summarising failures, if any."""
        if self.errors:
            detail = "; ".join(str(e) for e in self.errors[:3])
            more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
            raise ExperimentError(
                f"{len(self.errors)} of {self.n_requested} batch points "
                f"failed: {detail}{more}"
            )

    def describe(self) -> str:
        """One-line human summary of the batch run."""
        return (
            f"batch[{self.backend}]: {self.n_requested} requested, "
            f"{self.n_unique} unique, {self.n_cache_hits} cached "
            f"({self.cache_hit_rate:.0%}), {self.n_evaluated} evaluated, "
            f"{self.n_errors} errors in {self.elapsed_seconds:.2f}s"
        )

    def describe_phases(self) -> str:
        """One-line per-phase wall-time breakdown."""
        parts = " ".join(
            f"{name}={self.phase_seconds.get(name, 0.0):.3f}s"
            for name in ("dedup", "cache_lookup", "evaluate", "store")
        )
        return f"phases: {parts} (hit rate {self.hit_rate:.0%})"

    def as_dict(self) -> dict:
        """JSON-ready form (run manifests, the report ledger)."""
        return {
            "backend": self.backend,
            "n_requested": self.n_requested,
            "n_unique": self.n_unique,
            "n_cache_hits": self.n_cache_hits,
            "n_evaluated": self.n_evaluated,
            "n_errors": self.n_errors,
            "hit_rate": self.hit_rate,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "errors": [error.as_dict() for error in self.errors],
        }


@dataclass(frozen=True)
class BatchResult:
    """Results in input order (``None`` where the point errored)."""

    results: tuple[Optional[CacheableResult], ...]
    report: BatchReport

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


#: Progress callback: (input index, fingerprint, source) where source is
#: ``"cache"``, ``"evaluated"`` or ``"error"``.
ProgressFn = Callable[[int, str, str], None]


class BatchRunner:
    """Composable batch evaluator sharing one cache and one backend."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.backend = backend if backend is not None else SerialBackend()

    # ------------------------------------------------------------------
    def run(
        self,
        requests: "Sequence[EvalRequest | SurvivabilityRequest]",
        *,
        evaluate: Callable[[Any], Any] = evaluate_request,
        progress: Optional[ProgressFn] = None,
    ) -> BatchResult:
        """Dedup → cache → evaluate → store one batch of requests.

        ``evaluate`` is the per-point evaluation function handed to the
        backend (module-level so process pools can pickle it); the
        default handles :class:`EvalRequest`, survivability sweeps pass
        :func:`evaluate_survivability_request`. Mixing request types in
        one call works (fingerprints never collide) as long as
        ``evaluate`` accepts both.
        """
        t0 = time.perf_counter()
        report = BatchReport(
            n_requested=len(requests), backend=self.backend.describe()
        )
        phases = report.phase_seconds
        emitted = [False] * len(requests)

        def emit(i: int, key: str, source: str) -> None:
            emitted[i] = True
            progress(i, key, source)  # type: ignore[misc]

        # Dedup: map every input index onto the first request with the
        # same fingerprint; only representatives are looked up and run.
        t = time.perf_counter()
        with span("batch.dedup", requests=len(requests)):
            keys = [request.fingerprint() for request in requests]
            representative: dict[str, int] = {}
            for i, key in enumerate(keys):
                representative.setdefault(key, i)
        report.n_unique = len(representative)
        phases["dedup"] = time.perf_counter() - t

        t = time.perf_counter()
        by_key: dict[str, CacheableResult] = {}
        misses: list[tuple[str, int]] = []
        with span("batch.cache_lookup", unique=len(representative)):
            for key, i in representative.items():
                cached = self.cache.get(key)
                if cached is not None:
                    by_key[key] = cached
                    report.n_cache_hits += 1
                else:
                    misses.append((key, i))
        phases["cache_lookup"] = time.perf_counter() - t
        if progress is not None:
            # Hits (and duplicates of hits) resolve now; misses stream
            # from the backend, duplicates of misses settle at scatter.
            for i, key in enumerate(keys):
                if key in by_key:
                    emit(i, key, "cache")

        on_outcome = None
        if progress is not None:

            def on_outcome(outcome) -> None:
                key, i = misses[outcome.index]
                emit(i, key, "evaluated" if outcome.ok else "error")

        phases["evaluate"] = 0.0
        phases["store"] = 0.0
        if misses:
            t = time.perf_counter()
            with span("batch.evaluate", misses=len(misses)):
                outcomes = self.backend.run(
                    evaluate,
                    [requests[i] for _, i in misses],
                    on_outcome=on_outcome,
                )
            phases["evaluate"] = time.perf_counter() - t

            t = time.perf_counter()
            with span("batch.store", outcomes=len(outcomes)):
                for (key, i), outcome in zip(misses, outcomes):
                    if outcome.ok:
                        by_key[key] = outcome.value
                        self.cache.put(key, outcome.value)
                        report.n_evaluated += 1
                    else:
                        report.errors.append(
                            PointError(
                                index=i,
                                request=requests[i],
                                error=outcome.error,
                                error_type=outcome.error_type,
                                traceback=outcome.traceback,
                            )
                        )
            phases["store"] = time.perf_counter() - t

        results: list[Optional[CacheableResult]] = []
        for i, key in enumerate(keys):
            result = by_key.get(key)
            results.append(result)
            if progress is not None and not emitted[i]:
                # Duplicates of misses (and of errored points): settled
                # only now that the representative's outcome is known.
                emit(i, key, "error" if result is None else "cache")

        report.elapsed_seconds = time.perf_counter() - t0

        registry = metrics()
        registry.counter("engine.requests").add(report.n_requested)
        registry.counter("engine.unique").add(report.n_unique)
        registry.counter("engine.cache_hits").add(report.n_cache_hits)
        registry.counter("engine.evaluated").add(report.n_evaluated)
        registry.counter("engine.errors").add(report.n_errors)
        record_batch_report(report.as_dict())
        if report.errors:
            log.warning(
                "batch finished with %d error(s): %s",
                report.n_errors,
                report.errors[0],
            )
        log.info("%s", report.describe())
        return BatchResult(results=tuple(results), report=report)

    # ------------------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> GCSResult:
        """Single-point convenience (cache-through)."""
        batch = self.run([request])
        batch.report.raise_on_error()
        result = batch.results[0]
        assert result is not None
        return result

    def describe(self) -> str:
        """One-line summary of the backend and cache configuration."""
        return f"BatchRunner({self.backend.describe()}; {self.cache.describe()})"


def make_runner(
    jobs: "int | str | None" = None,
    cache_dir: "str | Path | None" = None,
    *,
    cache_cap_mb: Optional[float] = None,
) -> BatchRunner:
    """One-call runner factory shared by the CLI and the examples.

    ``jobs`` follows the :func:`~repro.engine.executor.make_backend`
    grammar (``N``, ``"auto"``, ``"vector[:N]"``, ``"remote[:URL]"``;
    ``None`` = serial).
    ``cache_dir=None`` gives a memory-only cache; ``cache_cap_mb``
    bounds a persistent one (LRU-by-mtime disk eviction).
    """
    if cache_cap_mb is not None and cache_dir is None:
        raise ParameterError("cache_cap_mb requires cache_dir")
    cache = ResultCache(
        cache_dir=Path(cache_dir) if cache_dir is not None else None,
        max_disk_bytes=int(cache_cap_mb * 1024 * 1024)
        if cache_cap_mb is not None
        else None,
    )
    return BatchRunner(cache=cache, backend=make_backend(jobs))


# ---------------------------------------------------------------------------
# Sweep adapters
# ---------------------------------------------------------------------------

def run_tids_sweep(
    runner: BatchRunner,
    params: GCSParameters,
    tids_grid_s: Sequence[float],
    *,
    network: Optional[NetworkModel] = None,
    method: str = "fast",
    overrides: Optional[Mapping[str, Any]] = None,
) -> list[TradeoffPoint]:
    """Engine-backed equivalent of :meth:`Scenario.sweep_tids`.

    Builds one :class:`EvalRequest` per grid value (applying
    ``overrides`` first, then the ``TIDS`` value, exactly like
    :func:`repro.core.optimizer.tradeoff_curve`), runs them as one
    batch through the runner's cache and backend and returns
    :class:`TradeoffPoint` objects in grid order. Raises on any point
    failure, and applies the same sorted-unique grid validation as
    ``tradeoff_curve``; every backend gives it the same bytes.
    """
    tids_grid_s = require_sorted_unique("tids_grid_s", tids_grid_s)
    base = params.replacing(**dict(overrides)) if overrides else params
    requests = [
        EvalRequest(
            params=base.replacing(detection_interval_s=float(tids)),
            network=network,
            method=method,
        )
        for tids in tids_grid_s
    ]
    batch = runner.run(requests)
    batch.report.raise_on_error()
    return [
        TradeoffPoint(tids_s=float(tids), result=result)
        for tids, result in zip(tids_grid_s, batch.results)
    ]
