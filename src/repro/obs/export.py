"""Observability sinks: JSONL trace log, Prometheus text, report view.

Three consumers, three formats, one source of truth:

* :func:`write_trace_jsonl` — the machine-readable event log behind
  ``--trace-out``.  One JSON object per line: an optional ``manifest``
  record first, then flattened ``span`` records (depth-first, with
  ``id``/``parent`` links assigned at export time) and ``metric``
  records, so the file is self-contained and greppable.
* :func:`render_prometheus` — the text exposition behind
  ``--metrics-out``: ``# TYPE`` headers, ``_total`` counters, gauges,
  and cumulative ``_bucket``/``_sum``/``_count`` histogram series.
* :func:`format_trace_report` — the human tree/table view behind
  ``repro obs report``: the span forest with durations, a per-name
  aggregate table, and the headline counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ObservabilityError
from .metrics import MetricsRegistry, help_text
from .spans import Span, Tracer

#: Format marker on the manifest/first record; bump on layout changes.
TRACE_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def _span_records(
    span: Span, parent_id: Optional[int], next_id: List[int]
) -> Iterator[dict]:
    span_id = next_id[0]
    next_id[0] += 1
    record = {
        "type": "span",
        "id": span_id,
        "parent": parent_id,
        "name": span.name,
        "started_at": span.started_at,
        "duration": span.duration,
        "status": span.status,
    }
    if span.error is not None:
        record["error"] = span.error
    # Stable distributed-trace identity, alongside the export-time
    # integer links that keep old readers working.
    if span.span_id is not None:
        record["span_id"] = span.span_id
    if span.parent_id is not None:
        record["parent_span_id"] = span.parent_id
    if span.trace_id is not None:
        record["trace_id"] = span.trace_id
    if span.attributes:
        record["attributes"] = dict(span.attributes)
    yield record
    for child in span.children:
        yield from _span_records(child, span_id, next_id)


def trace_records(
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    manifest: Optional[dict] = None,
) -> Iterator[dict]:
    """Every JSONL record of one trace dump, in file order."""
    if manifest is not None:
        yield {
            "type": "manifest",
            "format": TRACE_FORMAT_VERSION,
            **manifest,
        }
    next_id = [1]
    for root in tracer.roots:
        yield from _span_records(root, None, next_id)
    if metrics is not None:
        for item in metrics.to_dict()["metrics"]:
            yield {"type": "metric", **item}


def write_trace_jsonl(
    path,
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    manifest: Optional[dict] = None,
) -> int:
    """Write the JSONL event log to *path*; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        for record in trace_records(tracer, metrics, manifest):
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


@dataclass
class TraceDump:
    """A parsed ``--trace-out`` file."""

    manifest: Optional[dict] = None
    roots: List[Span] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()


def read_trace_jsonl(path) -> TraceDump:
    """Parse a JSONL trace back into spans + metrics + manifest."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise ObservabilityError(f"cannot read trace {path}: {error}")
    dump = TraceDump()
    by_id: Dict[int, Span] = {}
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ObservabilityError(
                f"{path}:{number}: not valid JSON ({error})"
            )
        kind = record.get("type")
        if kind == "manifest":
            dump.manifest = record
        elif kind == "span":
            span = Span(record["name"], record.get("attributes"))
            span.started_at = record.get("started_at", 0.0)
            span.duration = record.get("duration")
            span.status = record.get("status", "ok")
            span.error = record.get("error")
            span.span_id = record.get("span_id")
            span.parent_id = record.get("parent_span_id")
            span.trace_id = record.get("trace_id")
            by_id[record["id"]] = span
            parent = record.get("parent")
            if parent is None:
                dump.roots.append(span)
            elif parent in by_id:
                by_id[parent].children.append(span)
            else:
                raise ObservabilityError(
                    f"{path}:{number}: span parent {parent} not yet seen"
                )
        elif kind == "metric":
            dump.metrics.merge_dict({"metrics": [record]})
        else:
            raise ObservabilityError(
                f"{path}:{number}: unknown record type {kind!r}"
            )
    return dump


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _label_text(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus/OpenMetrics-style text exposition of *registry*."""
    lines: List[str] = []
    typed = set()
    for name, labels, metric in registry.samples():
        if name not in typed:
            lines.append(f"# HELP {name} {help_text(name)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            typed.add(name)
        if metric.kind in ("counter", "gauge"):
            lines.append(
                f"{name}{_label_text(labels)} {_format_value(metric.value)}"
            )
            continue
        cumulative = 0
        for bound, count in zip(metric.bounds, metric.counts):
            cumulative += count
            le = 'le="%s"' % _format_value(bound)
            lines.append(
                f"{name}_bucket{_label_text(labels, le)} {cumulative}"
            )
        inf = 'le="+Inf"'
        lines.append(
            f"{name}_bucket{_label_text(labels, inf)} {metric.count}"
        )
        lines.append(
            f"{name}_sum{_label_text(labels)} {_format_value(metric.sum)}"
        )
        lines.append(f"{name}_count{_label_text(labels)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, registry: MetricsRegistry) -> None:
    """Write :func:`render_prometheus` output to *path*."""
    Path(path).write_text(render_prometheus(registry))


# ----------------------------------------------------------------------
# human report (repro obs report)
# ----------------------------------------------------------------------
def _seconds(span: Span) -> float:
    return span.duration if span.duration is not None else 0.0


def trace_report_json(dump: TraceDump) -> dict:
    """One JSON document per trace: manifest + span forest + metrics +
    the per-name aggregates the human report tabulates.

    This is the machine-readable face of ``repro obs report`` (the
    ``--json`` flag) so CI and dashboards stop scraping the tree
    renderer.
    """
    totals: Dict[str, List[float]] = {}
    for span in dump.spans():
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += _seconds(span)
    return {
        "format": TRACE_FORMAT_VERSION,
        "manifest": dump.manifest,
        "spans": [root.to_dict() for root in dump.roots],
        "span_totals": {
            name: {"count": int(count), "seconds": seconds}
            for name, (count, seconds) in sorted(totals.items())
        },
        "metrics": dump.metrics.to_dict()["metrics"],
    }


def _tree_lines(
    span: Span, lines: List[str], prefix: str, last: bool, depth: int,
    max_depth: Optional[int],
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    connector = "" if not prefix and depth == 0 else ("`- " if last else "|- ")
    label_bits = []
    for key in ("benchmark", "config", "attempt"):
        if key in span.attributes:
            label_bits.append(f"{key}={span.attributes[key]}")
    status = "" if span.status == "ok" else f"  [{span.status}: {span.error}]"
    label = f" ({', '.join(label_bits)})" if label_bits else ""
    lines.append(
        f"{prefix}{connector}{span.name}{label}  {_seconds(span):.3f}s"
        f"{status}"
    )
    child_prefix = prefix + ("   " if last else "|  ") if depth > 0 else prefix
    for index, child in enumerate(span.children):
        _tree_lines(
            child, lines, child_prefix, index == len(span.children) - 1,
            depth + 1, max_depth,
        )


def format_trace_report(
    dump: TraceDump, max_depth: Optional[int] = None
) -> str:
    """Render a parsed trace as the ``obs report`` tree + tables."""
    lines: List[str] = []
    if dump.manifest is not None:
        m = dump.manifest
        outcome = m.get("outcome", {})
        lines.append(
            f"manifest: repro {m.get('repro_version', '?')} | "
            f"config {m.get('config_name', '?')} "
            f"(digest {m.get('config_digest', '?')[:12]}) | "
            f"scale {m.get('workload_scale', '?')} | "
            f"jobs {m.get('jobs', '?')}"
        )
        if outcome:
            lines.append(
                f"outcome: {outcome.get('completed', 0)} completed, "
                f"{outcome.get('failed', 0)} failed, "
                f"wall {outcome.get('wall_seconds', 0.0):.2f}s"
            )
        lines.append("")

    n_spans = sum(1 for _ in dump.spans())
    lines.append(f"trace: {len(dump.roots)} root span(s), {n_spans} total")
    for root in dump.roots:
        _tree_lines(root, lines, "", True, 0, max_depth)

    # Aggregate table: every span name with count / total / share.
    totals: Dict[str, Tuple[int, float]] = {}
    for span in dump.spans():
        count, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (count + 1, seconds + _seconds(span))
    # Shares against the leaf total (roots double-count their children).
    leaf_total = sum(
        _seconds(s) for s in dump.spans() if not s.children
    ) or 1.0
    if totals:
        lines.append("")
        width = max(len(name) for name in totals)
        lines.append(
            f"{'span':<{width}}  {'count':>5}  {'total':>9}  {'share':>6}"
        )
        for name, (count, seconds) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"{name:<{width}}  {count:>5}  {seconds:>8.3f}s  "
                f"{100.0 * seconds / leaf_total:>5.1f}%"
            )

    counters = [
        (name, labels, metric)
        for name, labels, metric in dump.metrics.samples()
        if metric.kind == "counter"
    ]
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, labels, metric in counters:
            label_text = _label_text(labels)
            lines.append(
                f"  {name}{label_text} = {_format_value(metric.value)}"
            )

    # Gauges come in families (one series per benchmark, config and
    # method), so the report aggregates per name; `repro obs diag`
    # renders the per-phase detail from the run spans.
    gauges: Dict[str, List[float]] = {}
    for name, labels, metric in dump.metrics.samples():
        if metric.kind == "gauge":
            gauges.setdefault(name, []).append(metric.value)
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            values = gauges[name]
            if len(values) == 1:
                lines.append(f"  {name} = {_format_value(values[0])}")
            else:
                lines.append(
                    f"  {name}: {len(values)} series, "
                    f"min {_format_value(min(values))}, "
                    f"max {_format_value(max(values))}"
                )

    histograms = [
        (name, labels, metric)
        for name, labels, metric in dump.metrics.samples()
        if metric.kind == "histogram"
    ]
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name, labels, metric in histograms:
            lines.append(
                f"  {name}{_label_text(labels)}: count {metric.count}, "
                f"sum {_format_value(metric.sum)}"
            )
    return "\n".join(lines)
