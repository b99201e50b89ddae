"""Live metrics streaming: delta encoding, exactly-once folding.

Post-hoc observability (PR 3/5) ships each worker's whole registry in
its final ``result`` message.  This module adds the in-flight view:

* :class:`MetricsDeltaEncoder` — worker side.  Walks the worker's
  registry and emits the *change* since the previous snapshot as a
  sequence-numbered delta (counters and histograms as arithmetic diffs,
  gauges as full current state).  Deltas piggyback on the dispatch
  ``heartbeat`` message.
* :class:`LiveRegistry` — driver side.  Folds deltas into a per-stream
  *pending* registry, gated on monotonic sequence numbers so a
  duplicated or re-ordered delta is applied exactly once (a gap marks
  the stream broken and stops folding — the committed final payload
  reconciles the totals).  When a task's final payload arrives the
  stream is *resolved*: under one lock the pending deltas are dropped
  and the authoritative payload merged, so a killed worker's partial
  deltas never double-count against its committed result and scraped
  counters stay monotone.  At suite completion every stream has been
  resolved or discarded, so ``snapshot()`` equals the post-hoc merged
  registry exactly.
* :class:`ProgressBoard` — the ``/progress`` state: runs done/total and
  per-worker lease state, maintained by the suite driver (runs) and the
  dispatcher (leases).
* :class:`TelemetryPlane` — the bundle a runner carries when live
  telemetry is enabled (``--serve`` / ``--events-out``): live registry,
  progress board, flight recorder.

Telemetry is strictly out-of-band: nothing here may influence results,
and every entry point is a no-op when no plane is attached.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from .context import ObsContext
from .events import EventLog
from .metrics import (
    TELEMETRY_DELTAS,
    TELEMETRY_DROPPED,
    LabelItems,
    MetricsRegistry,
)

#: Seconds between streamed snapshots (heartbeat piggyback / queue push).
DEFAULT_STREAM_INTERVAL = 0.25


def copy_registry(registry: MetricsRegistry, retries: int = 8) -> MetricsRegistry:
    """A deep copy of *registry*, tolerant of concurrent writers.

    The worker's main thread mutates its registry while the streaming
    thread serialises it; ``dict`` iteration during an insert raises
    ``RuntimeError``, so retry — instrument updates are tiny and a
    quiet window always arrives.
    """
    for _ in range(retries):
        try:
            return MetricsRegistry.from_dict(registry.to_dict())
        except RuntimeError:
            continue
    return MetricsRegistry.from_dict(registry.to_dict())


class MetricsDeltaEncoder:
    """Worker-side incremental snapshots of one registry.

    Each call to :meth:`next_delta` returns ``{"seq": n, "metrics":
    [...]}`` describing only what changed since the previous call (or
    ``None`` when nothing did).  Sequence numbers start at 1 and
    increase by exactly 1 — the driver's :class:`LiveRegistry` uses
    them to apply each delta exactly once.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._seq = 0
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._hists: Dict[Tuple[str, LabelItems], Tuple[List[int], float, int]] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Tuple[float, bool]] = {}

    @property
    def seq(self) -> int:
        return self._seq

    def next_delta(self) -> Optional[dict]:
        """The change since the last call, or ``None`` if quiescent."""
        snapshot = copy_registry(self._registry)
        items: List[dict] = []
        for name, labels, metric in snapshot.samples():
            key = (name, labels)
            if metric.kind == "counter":
                prev = self._counters.get(key, 0.0)
                if metric.value != prev:
                    items.append({
                        "name": name, "kind": "counter",
                        "labels": dict(labels),
                        "value": metric.value - prev,
                    })
                    self._counters[key] = metric.value
            elif metric.kind == "histogram":
                prev_counts, prev_sum, prev_count = self._hists.get(
                    key, ([0] * len(metric.counts), 0.0, 0)
                )
                if metric.count != prev_count:
                    items.append({
                        "name": name, "kind": "histogram",
                        "labels": dict(labels),
                        "bounds": list(metric.bounds),
                        "counts": [a - b for a, b in
                                   zip(metric.counts, prev_counts)],
                        "sum": metric.sum - prev_sum,
                        "count": metric.count - prev_count,
                    })
                    self._hists[key] = (
                        list(metric.counts), metric.sum, metric.count
                    )
            else:  # gauge: ship full state, the fold replaces
                state = (metric.value, metric.updated)
                if self._gauges.get(key) != state:
                    items.append({
                        "name": name, "kind": "gauge",
                        "labels": dict(labels), "agg": metric.agg,
                        "value": metric.value, "updated": metric.updated,
                    })
                    self._gauges[key] = state
        if not items:
            return None
        self._seq += 1
        return {"seq": self._seq, "metrics": items}


class _Stream:
    """One in-flight delta stream (one dispatch lease)."""

    __slots__ = ("pending", "last_seq", "broken")

    def __init__(self) -> None:
        self.pending = MetricsRegistry()
        self.last_seq = 0
        self.broken = False


class LiveRegistry:
    """Driver-side fold of the authoritative registry plus in-flight
    streamed deltas; the source behind a live ``/metrics`` scrape."""

    def __init__(self, base: MetricsRegistry) -> None:
        #: The runner's own registry — only committed payloads land
        #: here (via the pools' existing merge paths).
        self.base = base
        self._lock = threading.RLock()
        self._streams: Dict[str, _Stream] = {}
        #: Streams already settled — a straggler delta that was still in
        #: flight when its task committed must not resurrect the stream
        #: (its content is covered by the committed payload).
        self._closed: set = set()
        self.deltas_folded = 0
        self.deltas_dropped = 0

    # ------------------------------------------------------------------
    def fold(self, stream_id: str, payload: dict) -> bool:
        """Apply one streamed delta; returns True if it was folded.

        Exactly-once: a delta is applied iff its ``seq`` is exactly one
        past the stream's last applied sequence number.  Duplicates and
        re-ordered deltas are dropped; a gap poisons the stream (its
        pending state is cleared and further deltas ignored) because
        partial sums would be wrong — the committed final payload
        restores exactness at :meth:`resolve` time.
        """
        try:
            seq = int(payload["seq"])
            metrics = payload.get("metrics") or ()
        except (KeyError, TypeError, ValueError):
            self._dropped()
            return False
        with self._lock:
            if stream_id in self._closed:
                self._dropped()
                return False
            stream = self._streams.setdefault(stream_id, _Stream())
            if seq <= stream.last_seq:
                self._dropped()
                return False
            if seq != stream.last_seq + 1:
                stream.broken = True
                stream.pending = MetricsRegistry()
            stream.last_seq = seq
            if stream.broken:
                self._dropped()
                return False
            self._fold_items(stream.pending, metrics)
            self.deltas_folded += 1
            self.base.counter(TELEMETRY_DELTAS).inc()
            return True

    def _dropped(self) -> None:
        self.deltas_dropped += 1
        self.base.counter(TELEMETRY_DROPPED).inc()

    @staticmethod
    def _fold_items(pending: MetricsRegistry, items) -> None:
        for item in items:
            name, labels = item["name"], item.get("labels", {})
            kind = item.get("kind", "counter")
            if kind == "counter":
                pending.counter(name, **labels).inc(float(item["value"]))
            elif kind == "gauge":
                gauge = pending.gauge(
                    name, agg=item.get("agg", "last"), **labels
                )
                gauge.load(item)
            else:
                hist = pending.histogram(
                    name, buckets=tuple(item["bounds"]), **labels
                )
                hist.counts = [
                    a + b for a, b in zip(hist.counts, item["counts"])
                ]
                hist.sum += float(item["sum"])
                hist.count += int(item["count"])

    # ------------------------------------------------------------------
    def resolve(
        self, stream_id: str, merge: Optional[Callable[[], Any]] = None
    ) -> None:
        """Settle a stream against its committed final payload.

        Atomically (w.r.t. :meth:`snapshot`) drops the stream's pending
        deltas and runs *merge* — the pool's existing fold of the final
        obs payload into the base registry.  The final payload is a
        superset of the streamed deltas, so a scrape never observes a
        counter going backwards.
        """
        with self._lock:
            self._streams.pop(stream_id, None)
            self._closed.add(stream_id)
            if merge is not None:
                merge()

    def discard(self, stream_id: str) -> None:
        """Drop a stream's partial deltas (reclaimed lease, dead
        worker) — the retried attempt streams under a fresh id."""
        with self._lock:
            self._streams.pop(stream_id, None)
            self._closed.add(stream_id)

    def pending_streams(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsRegistry:
        """Authoritative state plus all in-flight deltas, as a fresh
        registry (safe to render off-thread)."""
        with self._lock:
            snap = copy_registry(self.base)
            for stream in self._streams.values():
                snap.merge(stream.pending)
            return snap


class ProgressBoard:
    """Thread-safe run/worker progress behind ``/progress``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0
        self.done = 0
        self.failed = 0
        self.resumed = 0
        self.phase = "idle"
        self._workers: Dict[str, Dict[str, Any]] = {}

    def begin_suite(self, total: int, resumed: int = 0) -> None:
        with self._lock:
            self.total = int(total)
            self.resumed = int(resumed)
            self.done = 0
            self.failed = 0
            self.phase = "running"

    def end_suite(self) -> None:
        with self._lock:
            self.phase = "done"

    def run_done(self, benchmark: str) -> None:
        with self._lock:
            self.done += 1

    def run_failed(self, benchmark: str) -> None:
        with self._lock:
            self.failed += 1

    def note_worker(
        self,
        worker: Any,
        state: str,
        benchmark: Optional[str] = None,
        lease: Optional[str] = None,
    ) -> None:
        with self._lock:
            self._workers[str(worker)] = {
                "state": state,
                "benchmark": benchmark,
                "lease": lease,
            }

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "phase": self.phase,
                "runs": {
                    "total": self.total,
                    "done": self.done,
                    "failed": self.failed,
                    "resumed": self.resumed,
                },
                "workers": {
                    wid: dict(info)
                    for wid, info in sorted(self._workers.items())
                },
            }


class TelemetryPlane:
    """Everything live telemetry needs, hanging off one runner."""

    def __init__(
        self, obs: ObsContext, events: Optional[EventLog] = None
    ) -> None:
        self.obs = obs
        self.live = LiveRegistry(obs.metrics)
        self.progress = ProgressBoard()
        self.events = events if events is not None else EventLog()

    def close(self) -> None:
        self.events.close()
