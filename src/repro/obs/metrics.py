"""Metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` lives on each process's observability
context.  Instruments are identified by ``(name, sorted labels)``;
asking for the same identity twice returns the same instrument, so call
sites never pre-register anything.  Registries from parallel workers are
serialised (:meth:`MetricsRegistry.to_dict`) and folded into the suite
driver's registry with well-defined merge semantics:

* **counters** add;
* **histograms** add bucket counts and sums (bucket bounds must match —
  a mismatch is a programming error and raises);
* **gauges** keep the last updated value: an updated incoming gauge
  wins, one never set leaves the value alone.

Names follow the Prometheus conventions the text exposition
(:func:`repro.obs.export.render_prometheus`) expects: counters end in
``_total``, histograms are base names that expand to ``_bucket`` /
``_sum`` / ``_count`` series.  The harness's well-known metric names are
defined here so instrumentation sites and tests cannot drift apart.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ObservabilityError

# ----------------------------------------------------------------------
# well-known harness metric names
# ----------------------------------------------------------------------
CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_CORRUPT = "repro_cache_corrupt_total"
RUNS_COMPLETED = "repro_runs_completed_total"
RUN_RETRIES = "repro_run_retries_total"
RUN_FAILURES = "repro_run_failures_total"
RUN_TIMEOUTS = "repro_run_timeouts_total"
WORKER_CRASHES = "repro_worker_crashes_total"
FAULTS_INJECTED = "repro_faults_injected_total"
STAGE_SECONDS = "repro_stage_seconds"
RUN_SECONDS = "repro_run_seconds"
DETAILED_INSTRUCTIONS = "repro_detailed_instructions_total"
DETAILED_CALLS = "repro_detailed_calls_total"
DETAILED_PIECES = "repro_detailed_pieces_total"
FUNCTIONAL_INSTRUCTIONS = "repro_functional_instructions_total"
PROFILE_PASSES = "repro_profile_passes_total"
CLUSTER_SWEEPS = "repro_cluster_sweeps_total"
KMEANS_RUNS = "repro_kmeans_runs_total"
KMEANS_ITERATIONS = "repro_kmeans_iterations_total"
DISTANCE_EVALS = "repro_distance_evals_total"
#: Retired with shared-memory trace sharing: never incremented, kept so
#: readers of older metric dumps still resolve the name.
TRACE_SHM_FALLBACKS = "repro_trace_shm_fallbacks_total"
DISPATCH_LEASES = "repro_dispatch_leases_total"
DISPATCH_HEARTBEATS = "repro_dispatch_heartbeats_total"
DISPATCH_MISSED = "repro_dispatch_missed_total"
DISPATCH_RECLAIMS = "repro_dispatch_reclaims_total"
DISPATCH_STEALS = "repro_dispatch_steals_total"
DISPATCH_STALE_COMMITS = "repro_dispatch_stale_commits_total"
DISPATCH_LEASE_SECONDS = "repro_dispatch_lease_seconds"
JOURNAL_TORN = "repro_journal_torn_total"
TRACE_IMPORT_REJECTED = "repro_trace_import_rejected_total"
RETRY_BACKOFF_SECONDS = "repro_retry_backoff_seconds"
TELEMETRY_DROPPED = "repro_telemetry_dropped_total"

# ----------------------------------------------------------------------
# Prometheus HELP text, registered next to the names so the exposition
# (`render_prometheus`) can emit `# HELP` before every `# TYPE`.
# Modules that define their own metric families (diag, bench) register
# theirs via :func:`register_help` at import time.
# ----------------------------------------------------------------------
_METRIC_HELP: Dict[str, str] = {
    CACHE_HITS: "Result-cache lookups served from a committed entry.",
    CACHE_MISSES: "Result-cache lookups that fell through to a real run.",
    CACHE_CORRUPT: "Result-cache entries rejected as corrupt and evicted.",
    RUNS_COMPLETED: "Pipeline runs that finished and committed a result.",
    RUN_RETRIES: "Run attempts retried after a failure.",
    RUN_FAILURES: "Runs abandoned after exhausting their retry budget.",
    RUN_TIMEOUTS: "Run attempts killed by the per-run deadline.",
    WORKER_CRASHES: "Worker processes that died mid-task.",
    FAULTS_INJECTED: "Faults fired by the $REPRO_FAULTS injection plan.",
    STAGE_SECONDS: "Wall seconds per pipeline stage.",
    RUN_SECONDS: "Wall seconds per pipeline run (all stages).",
    DETAILED_INSTRUCTIONS: "Instructions executed in detailed simulation.",
    DETAILED_CALLS: "Detailed-simulation invocations.",
    DETAILED_PIECES: "Trace pieces (whole-rep runs of one segment) walked "
                     "in detailed simulation.",
    FUNCTIONAL_INSTRUCTIONS: "Instructions executed functionally.",
    PROFILE_PASSES: "Profiling passes over the instruction trace.",
    CLUSTER_SWEEPS: "k-means/BIC sweeps run to build sampling plans "
                    "(a memoised clustering books none).",
    KMEANS_RUNS: "k-means runs inside those sweeps (candidate ks times "
                 "seeds per sweep).",
    KMEANS_ITERATIONS: "Lloyd iterations over every (k, seed) run of "
                       "those sweeps.",
    DISTANCE_EVALS: "Point-centre distances those sweeps evaluated "
                    "(seeding included; bound-pruned rows skipped).",
    TRACE_SHM_FALLBACKS: "Retired (traces are no longer shared); always 0.",
    DISPATCH_LEASES: "Task leases granted by the dispatcher.",
    DISPATCH_HEARTBEATS: "Worker heartbeats accepted by the dispatcher.",
    DISPATCH_MISSED: "Heartbeat deadlines missed by leased tasks.",
    DISPATCH_RECLAIMS: "Leases reclaimed from unresponsive workers.",
    DISPATCH_STEALS: "Reclaimed tasks re-granted to a different worker.",
    DISPATCH_STALE_COMMITS: "Results rejected because their lease was stale.",
    DISPATCH_LEASE_SECONDS: "Lease lifetime from grant to settle.",
    JOURNAL_TORN: "Torn trailing journal lines healed during resume.",
    TRACE_IMPORT_REJECTED: "External trace records rejected by the importer.",
    RETRY_BACKOFF_SECONDS: "Backoff slept between retry attempts.",
    TELEMETRY_DROPPED: "Streamed metrics snapshots discarded (malformed, "
                       "or for a settled stream).",
}


def register_help(name: str, text: str) -> None:
    """Register Prometheus ``# HELP`` text for a metric family."""
    _METRIC_HELP[name] = " ".join(text.split())


def help_text(name: str) -> str:
    """The registered help for *name* (a neutral default when unset)."""
    return _METRIC_HELP.get(name, f"Metric {name} recorded by the repro "
                                  f"harness (no help registered).")

#: Default histogram bucket upper bounds (seconds) — spans pipeline
#: stages from sub-millisecond cache hits to multi-minute baselines.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter increment must be >= 0, got {amount}"
            )
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> dict:
        return {"value": self.value}

    def load(self, payload: dict) -> None:
        self.value = payload["value"]


class Gauge:
    """Point-in-time value; across processes the last update wins."""

    kind = "gauge"
    __slots__ = ("value", "updated")

    def __init__(self) -> None:
        self.value = 0.0
        self.updated = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated = True

    def merge(self, other: "Gauge") -> None:
        if other.updated:  # the incoming (more recent) value wins
            self.value = other.value
            self.updated = True

    def to_dict(self) -> dict:
        return {"value": self.value, "updated": self.updated}

    def load(self, payload: dict) -> None:
        # Every gauge is last-wins: a payload naming any other
        # aggregation is malformed.
        if payload.get("agg", "last") != "last":
            raise ObservabilityError(
                f"unknown gauge aggregation {payload['agg']!r}"
            )
        self.value = payload["value"]
        self.updated = payload.get("updated", True)


class Histogram:
    """Fixed-bucket histogram (cumulative export, Prometheus-style).

    ``bounds`` are inclusive upper bucket bounds; one implicit ``+Inf``
    bucket catches the overflow.  ``counts`` are per-bucket (not yet
    cumulative — the exporter accumulates).
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram bounds must be strictly increasing and "
                f"non-empty, got {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"histogram bucket mismatch: {self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def load(self, payload: dict) -> None:
        self.bounds = tuple(payload["bounds"])
        self.counts = list(payload["counts"])
        self.sum = payload["sum"]
        self.count = payload["count"]


class MetricsRegistry:
    """Get-or-create home of every instrument in one process."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def label_items(labels: Dict[str, Any]) -> LabelItems:
        """*labels* in key form: ``(name, str(value))`` pairs, sorted."""
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get(self, name: str, labels: Dict[str, Any], factory, kind: str):
        return self._instrument(name, self.label_items(labels), factory, kind)

    def _instrument(self, name: str, items: LabelItems, factory, kind: str):
        key = (name, items)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter ``name{labels}`` (created on first use)."""
        return self._get(name, labels, Counter, "counter")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge ``name{labels}`` (created on first use)."""
        return self._get(name, labels, Gauge, "gauge")

    def gauge_at(self, name: str, items: LabelItems) -> Gauge:
        """The gauge ``name{items}``, *items* already in :meth:`label_items`
        form (for callers that look up many gauges of one label set)."""
        return self._instrument(name, items, Gauge, "gauge")

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram ``name{labels}`` (created on first use)."""
        return self._get(name, labels, lambda: Histogram(buckets),
                         "histogram")

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Convenience: a counter/gauge's value, 0.0 when absent."""
        metric = self._metrics.get((name, self.label_items(labels)))
        if metric is None:
            return 0.0
        if metric.kind == "histogram":
            raise ObservabilityError(
                f"metric {name!r} is a histogram; read .sum/.count instead"
            )
        return metric.value

    def samples(self) -> Iterator[Tuple[str, LabelItems, Any]]:
        """Every instrument, sorted by (name, labels) for stable export."""
        for (name, labels) in sorted(self._metrics):
            yield name, labels, self._metrics[(name, labels)]

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s instruments into this registry."""
        for (name, labels), metric in other._metrics.items():
            labels_dict = dict(labels)
            if metric.kind == "counter":
                self.counter(name, **labels_dict).merge(metric)
            elif metric.kind == "gauge":
                self.gauge(name, **labels_dict).merge(metric)
            else:
                self.histogram(
                    name, buckets=metric.bounds, **labels_dict
                ).merge(metric)

    def to_dict(self) -> dict:
        """JSON-serialisable form (worker -> driver, ``--trace-out``)."""
        items: List[dict] = []
        for name, labels, metric in self.samples():
            items.append({
                "name": name,
                "kind": metric.kind,
                "labels": dict(labels),
                **metric.to_dict(),
            })
        return {"metrics": items}

    @staticmethod
    def from_dict(payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = MetricsRegistry()
        registry.merge_dict(payload)
        return registry

    def merge_dict(self, payload: Optional[dict]) -> None:
        """Merge a serialised registry into this one."""
        if not payload:
            return
        incoming = MetricsRegistry()
        for item in payload.get("metrics", ()):
            name, labels = item["name"], item.get("labels", {})
            kind = item.get("kind", "counter")
            if kind == "counter":
                incoming.counter(name, **labels).load(item)
            elif kind == "gauge":
                incoming.gauge(name, **labels).load(item)
            elif kind == "histogram":
                incoming.histogram(
                    name, buckets=tuple(item["bounds"]), **labels
                ).load(item)
            else:
                raise ObservabilityError(f"unknown metric kind {kind!r}")
        self.merge(incoming)
