"""repro.obs — zero-dependency observability layer.

Three pieces (see each module for details):

``repro.obs.trace``
    Span tracer (``with span("solve", n=54): ...``) with Chrome-trace
    (Perfetto) and JSONL exporters.  Off by default; a disabled span is
    a shared no-op singleton.
``repro.obs.metrics``
    Counters / gauges / log-binned histograms with snapshot → diff →
    merge semantics so pool workers ship deltas to the parent.
``repro.obs.manifest``
    ``RunManifest`` — the "what produced this artifact" JSON written
    next to campaign outputs.

``repro.obs.runtime`` carries the cross-process glue (worker init,
telemetry capture, the batch-report ledger, and ``repro``-scoped
logging configuration).  Everything here is stdlib-only by design —
the engine must stay importable on a bare Python.
"""

from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    git_revision,
    params_digest,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_bin_edges,
    metrics,
    reset_metrics,
)
from .runtime import (
    ObsWorkerConfig,
    absorb_telemetry,
    batch_reports,
    clear_batch_reports,
    configure_logging,
    init_worker,
    record_batch_report,
    reset_observability,
    telemetry_capture,
    worker_config,
)
from .trace import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    records_from_dicts,
    span,
    to_chrome_trace,
    tracer,
    tracing_enabled,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsWorkerConfig",
    "RunManifest",
    "SpanRecord",
    "Tracer",
    "absorb_telemetry",
    "batch_reports",
    "clear_batch_reports",
    "configure_logging",
    "default_bin_edges",
    "disable_tracing",
    "enable_tracing",
    "git_revision",
    "init_worker",
    "metrics",
    "params_digest",
    "record_batch_report",
    "records_from_dicts",
    "reset_metrics",
    "reset_observability",
    "span",
    "telemetry_capture",
    "to_chrome_trace",
    "tracer",
    "tracing_enabled",
    "worker_config",
    "write_chrome_trace",
    "write_jsonl",
]
