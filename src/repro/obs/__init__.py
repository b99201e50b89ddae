"""Observability: span tracing, metrics, exporters, run manifests.

The measurement substrate under every performance claim the harness
makes.  Five pieces:

* :mod:`repro.obs.spans` — hierarchical span tracer (context-manager
  API, monotonic clocks, parent/child nesting, cross-process
  serialisation);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with multi-process merge semantics;
* :mod:`repro.obs.export` — JSONL event log (``--trace-out``),
  Prometheus text exposition (``--metrics-out``), and the human
  ``repro obs report`` tree/table view;
* :mod:`repro.obs.manifest` — per-invocation provenance records;
* :mod:`repro.obs.diag` — per-phase error attribution and
  clustering-quality telemetry, published on each ``run`` span and
  rendered by ``repro obs diag``.

The live telemetry plane adds four more:

* :mod:`repro.obs.stream` — live metrics from streamed whole-registry
  snapshots, the last per lease winning until its commit resolves it
  (:class:`LiveRegistry`), plus the progress board and the
  :class:`TelemetryPlane` bundle;
* :mod:`repro.obs.serve` — the ``/metrics`` / ``/healthz`` /
  ``/progress`` / ``/events`` HTTP endpoints behind ``--serve``;
* :mod:`repro.obs.events` — the bounded flight-recorder ring behind
  ``repro obs events``;
* :mod:`repro.obs.flame` — folded-stack flamegraph export behind
  ``repro obs flame``.

See the "Observability" section of DESIGN.md for the span model and
merge semantics.
"""

from .context import ObsContext
from .diag import (
    MethodDiag,
    PhaseDiag,
    build_method_diag,
    format_diag_report,
    record_diag_metrics,
    run_diagnostics,
)
from .events import (
    EventLog,
    follow_events,
    format_event,
    match_event,
    parse_filters,
    read_events,
)
from .export import (
    TraceDump,
    format_trace_report,
    read_trace_jsonl,
    render_prometheus,
    trace_records,
    trace_report_json,
    write_prometheus,
    write_trace_jsonl,
)
from .flame import folded_stacks, render_folded, write_folded
from .history import (
    HISTORY_VERSION,
    HistoryDiff,
    HistoryRecord,
    RunHistory,
    diff_records,
    format_diff,
    format_history,
    record_from_bench,
    record_from_manifest,
)
from .manifest import MANIFEST_VERSION, RunManifest, host_fingerprint
from .metrics import (
    CACHE_CORRUPT,
    CACHE_HITS,
    CACHE_MISSES,
    CLUSTER_SWEEPS,
    DEFAULT_BUCKETS,
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    DETAILED_PIECES,
    DISPATCH_HEARTBEATS,
    DISPATCH_LEASE_SECONDS,
    DISPATCH_LEASES,
    DISPATCH_MISSED,
    DISPATCH_RECLAIMS,
    DISPATCH_STALE_COMMITS,
    DISPATCH_STEALS,
    DISTANCE_EVALS,
    FAULTS_INJECTED,
    FUNCTIONAL_INSTRUCTIONS,
    JOURNAL_TORN,
    KMEANS_ITERATIONS,
    KMEANS_RUNS,
    PROFILE_PASSES,
    RETRY_BACKOFF_SECONDS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUN_SECONDS,
    RUN_TIMEOUTS,
    RUNS_COMPLETED,
    STAGE_SECONDS,
    TELEMETRY_DROPPED,
    TRACE_SHM_FALLBACKS,
    WORKER_CRASHES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    help_text,
    register_help,
)
from .serve import TelemetryServer
from .spans import Span, Tracer
from .stream import (
    LiveRegistry,
    ProgressBoard,
    TelemetryPlane,
    copy_registry,
)

__all__ = [
    "CACHE_CORRUPT",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CLUSTER_SWEEPS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DETAILED_CALLS",
    "DETAILED_INSTRUCTIONS",
    "DETAILED_PIECES",
    "DISPATCH_HEARTBEATS",
    "DISPATCH_LEASE_SECONDS",
    "DISPATCH_LEASES",
    "DISPATCH_MISSED",
    "DISPATCH_RECLAIMS",
    "DISPATCH_STALE_COMMITS",
    "DISPATCH_STEALS",
    "DISTANCE_EVALS",
    "EventLog",
    "FAULTS_INJECTED",
    "FUNCTIONAL_INSTRUCTIONS",
    "Gauge",
    "HISTORY_VERSION",
    "Histogram",
    "HistoryDiff",
    "HistoryRecord",
    "JOURNAL_TORN",
    "KMEANS_ITERATIONS",
    "KMEANS_RUNS",
    "LiveRegistry",
    "MANIFEST_VERSION",
    "MethodDiag",
    "MetricsRegistry",
    "ObsContext",
    "PhaseDiag",
    "ProgressBoard",
    "PROFILE_PASSES",
    "RETRY_BACKOFF_SECONDS",
    "RUN_FAILURES",
    "RUN_RETRIES",
    "RUN_SECONDS",
    "RUN_TIMEOUTS",
    "RUNS_COMPLETED",
    "RunHistory",
    "RunManifest",
    "STAGE_SECONDS",
    "Span",
    "TELEMETRY_DROPPED",
    "TRACE_SHM_FALLBACKS",
    "TelemetryPlane",
    "TelemetryServer",
    "TraceDump",
    "Tracer",
    "WORKER_CRASHES",
    "build_method_diag",
    "copy_registry",
    "diff_records",
    "folded_stacks",
    "follow_events",
    "format_diag_report",
    "format_diff",
    "format_event",
    "format_history",
    "format_trace_report",
    "help_text",
    "host_fingerprint",
    "match_event",
    "parse_filters",
    "read_events",
    "read_trace_jsonl",
    "record_diag_metrics",
    "record_from_bench",
    "record_from_manifest",
    "register_help",
    "render_folded",
    "render_prometheus",
    "run_diagnostics",
    "trace_records",
    "trace_report_json",
    "write_folded",
    "write_prometheus",
    "write_trace_jsonl",
]
