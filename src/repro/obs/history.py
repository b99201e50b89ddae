"""Append-only cross-run history and the ``repro obs diff`` engine.

Every ``run``/``suite``/``bench`` invocation appends one compact
:class:`HistoryRecord` to a JSONL store (``.repro_history/history.jsonl``
by default, ``$REPRO_HISTORY_DIR`` relocates it).  A record carries the
provenance keys of :class:`~repro.obs.manifest.RunManifest` — config,
sampling and cost-model digests, workload scale, host fingerprint — plus
the *numbers* worth tracking across commits: per-benchmark per-method
accuracy (CPI/L1/L2 deviations), headline counters, and bench speedup
ratios.

:func:`diff_records` compares two records metric by metric and renders
thresholded PASS / REGRESSED / IMPROVED verdicts; the CLI's
``repro obs diff`` exits nonzero when anything regressed, which is what
the warm-rerun pin in ``tests/test_exact_pins.py`` leans on.  Records
whose provenance keys differ (different config digest, scale,
methods...) still diff, but every mismatched key is called out so an
apples-to-oranges comparison cannot masquerade as a regression signal.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..errors import HarnessError, ObservabilityError
from .manifest import RunManifest
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bench.report import BenchReport
    from ..harness.runner import BenchmarkRun

#: Bump when the record layout changes incompatibly.
HISTORY_VERSION = 1

#: Environment variable relocating the history directory.
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

#: File name inside the history directory.
HISTORY_FILE = "history.jsonl"

#: Provenance keys two records must share to be apples-to-apples.
COMPARABLE_KEYS = (
    "kind",
    "config_name",
    "config_digest",
    "sampling_digest",
    "workload_scale",
    "methods",
)

#: Fractional speedup drop treated as a bench regression.
SPEEDUP_DROP_THRESHOLD = 0.10


def default_history_dir() -> Path:
    """``$REPRO_HISTORY_DIR`` or ``.repro_history/`` under the cwd."""
    env = os.environ.get(HISTORY_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_history"


@dataclass
class HistoryRecord:
    """One invocation's tracked numbers plus the keys to compare them by."""

    version: int = HISTORY_VERSION
    run_id: str = ""
    kind: str = "run"
    created: str = ""
    config_name: str = ""
    config_digest: str = ""
    sampling_digest: str = ""
    workload_scale: float = 1.0
    methods: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)
    host: Dict[str, str] = field(default_factory=dict)
    outcome: Dict[str, object] = field(default_factory=dict)
    #: ``{benchmark: {method: {cpi_dev, l1_dev, l2_dev, baseline_cpi,
    #: estimate_cpi}}}`` — the accuracy surface ``obs diff`` guards.
    accuracy: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )
    #: Headline counters, keyed ``name`` or ``name{k=v,...}``.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Bench speedup ratios per case (``kind == "bench"`` records).
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Aggregate leaderboard rank per method, 1 = best
    #: (``kind == "leaderboard"`` records; see ``repro leaderboard``).
    ranks: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def comparable_key(self) -> Dict[str, object]:
        """The provenance facts a fair comparison must agree on."""
        return {
            "kind": self.kind,
            "config_name": self.config_name,
            "config_digest": self.config_digest,
            "sampling_digest": self.sampling_digest,
            "workload_scale": self.workload_scale,
            "methods": list(self.methods),
        }

    def seal(self) -> "HistoryRecord":
        """Assign the content-derived ``run_id`` (idempotent)."""
        if not self.run_id:
            body = dict(self.to_dict())
            body.pop("run_id", None)
            digest = hashlib.sha256(
                json.dumps(body, sort_keys=True).encode()
            ).hexdigest()
            self.run_id = digest[:12]
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "version": self.version,
            "run_id": self.run_id,
            "kind": self.kind,
            "created": self.created,
            "config_name": self.config_name,
            "config_digest": self.config_digest,
            "sampling_digest": self.sampling_digest,
            "workload_scale": self.workload_scale,
            "methods": list(self.methods),
            "benchmarks": list(self.benchmarks),
            "host": dict(self.host),
            "outcome": dict(self.outcome),
            "accuracy": {
                bench: {
                    method: dict(values)
                    for method, values in per_method.items()
                }
                for bench, per_method in self.accuracy.items()
            },
            "counters": dict(self.counters),
            "speedups": dict(self.speedups),
            "ranks": dict(self.ranks),
        }

    @staticmethod
    def from_dict(payload: dict) -> "HistoryRecord":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = set(HistoryRecord.__dataclass_fields__)
        return HistoryRecord(
            **{k: v for k, v in payload.items() if k in known}
        )


# ----------------------------------------------------------------------
def record_from_manifest(
    manifest: RunManifest,
    runs: Sequence["BenchmarkRun"] = (),
    kind: str = "suite",
    registry: Optional[MetricsRegistry] = None,
) -> HistoryRecord:
    """Build a history record out of a finished run/suite invocation.

    *runs* supply the accuracy surface; *registry* (the runner's metrics)
    supplies the headline counters — gauges and histograms are left to
    ``--trace-out``, the history tracks scalars that diff meaningfully.
    """
    accuracy: Dict[str, Dict[str, Dict[str, float]]] = {}
    for run in runs:
        per_method: Dict[str, Dict[str, float]] = {}
        for name, result in run.methods.items():
            per_method[name] = {
                "cpi_dev": result.deviation.cpi,
                "l1_dev": result.deviation.l1_hit_rate,
                "l2_dev": result.deviation.l2_hit_rate,
                "baseline_cpi": run.baseline.cpi,
                "estimate_cpi": result.estimate.cpi,
            }
        accuracy[run.benchmark] = per_method
    counters: Dict[str, float] = {}
    if registry is not None:
        for name, label_items, metric in registry.samples():
            if getattr(metric, "kind", "") != "counter":
                continue
            key = name
            if label_items:
                inner = ",".join(f"{k}={v}" for k, v in label_items)
                key = f"{name}{{{inner}}}"
            counters[key] = metric.value
    host = {
        k: v
        for k, v in {
            "repro_version": manifest.repro_version,
            "python_version": manifest.python_version,
            "numpy_version": manifest.numpy_version,
            "platform": manifest.platform,
        }.items()
        if v
    }
    return HistoryRecord(
        kind=kind,
        created=manifest.created,
        config_name=manifest.config_name,
        config_digest=manifest.config_digest,
        sampling_digest=manifest.sampling_digest,
        workload_scale=manifest.workload_scale,
        methods=list(manifest.methods),
        benchmarks=list(manifest.benchmarks),
        host=host,
        outcome=dict(manifest.outcome),
        accuracy=accuracy,
        counters=counters,
    ).seal()


def record_from_bench(report: "BenchReport") -> HistoryRecord:
    """Build a history record out of a ``repro bench`` report."""
    speedups: Dict[str, float] = {}
    for case in report.cases:
        speedup = case.get("speedup")
        if speedup is not None:
            speedups[case["name"]] = float(speedup)
    return HistoryRecord(
        kind="bench",
        created=report.host.get("created", ""),
        workload_scale=report.scale,
        benchmarks=sorted(speedups),
        host={
            k: v for k, v in report.host.items() if k != "created"
        },
        speedups=speedups,
    ).seal()


# ----------------------------------------------------------------------
class RunHistory:
    """The append-only JSONL store plus reference resolution.

    References accepted by :meth:`resolve`:

    * ``last`` — the most recent record; ``prev`` — the one before it;
    * ``~N`` — N records back from the end (``~0`` is ``last``);
    * any unambiguous ``run_id`` prefix.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_history_dir()
        )

    @property
    def path(self) -> Path:
        """The JSONL file records append to."""
        return self.directory / HISTORY_FILE

    # ------------------------------------------------------------------
    def append(self, record: HistoryRecord) -> HistoryRecord:
        """Seal *record* and append it to the store."""
        record.seal()
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return record

    def load(self) -> List[HistoryRecord]:
        """All records, oldest first (empty when the store is absent)."""
        if not self.path.exists():
            return []
        records: List[HistoryRecord] = []
        try:
            text = self.path.read_text()
        except OSError as error:
            raise ObservabilityError(
                f"cannot read history {self.path}: {error}"
            )
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ObservabilityError(
                    f"corrupt history record at {self.path}:{lineno}: {error}"
                )
            if not isinstance(payload, dict):
                raise ObservabilityError(
                    f"corrupt history record at {self.path}:{lineno}: "
                    f"expected an object, got {type(payload).__name__}"
                )
            records.append(HistoryRecord.from_dict(payload))
        return records

    def resolve(
        self, ref: str, records: Optional[List[HistoryRecord]] = None
    ) -> HistoryRecord:
        """The record *ref* names (see class docstring for the forms)."""
        if records is None:
            records = self.load()
        if not records:
            raise HarnessError(
                f"history is empty ({self.path}); run a suite first"
            )
        if ref == "last":
            return records[-1]
        if ref == "prev":
            if len(records) < 2:
                raise HarnessError(
                    "history has only one record; 'prev' needs two"
                )
            return records[-2]
        if ref.startswith("~"):
            try:
                back = int(ref[1:])
            except ValueError:
                raise HarnessError(f"bad history reference {ref!r}")
            if back < 0 or back >= len(records):
                raise HarnessError(
                    f"history reference {ref} out of range "
                    f"({len(records)} record(s))"
                )
            return records[-1 - back]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise HarnessError(
                f"history reference {ref!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        raise HarnessError(f"unknown history reference {ref!r}")


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffEntry:
    """One compared number: old value, new value, signed delta, verdict."""

    name: str
    a: Optional[float]
    b: Optional[float]
    delta: Optional[float]
    verdict: str  # PASS | REGRESSED | IMPROVED | INFO


@dataclass
class HistoryDiff:
    """The full comparison of two history records."""

    a: HistoryRecord
    b: HistoryRecord
    threshold: float
    entries: List[DiffEntry] = field(default_factory=list)
    #: Comparability caveats (mismatched provenance keys, missing sides).
    notes: List[str] = field(default_factory=list)

    @property
    def regressed(self) -> List[DiffEntry]:
        """The entries that regressed (empty means the diff passes)."""
        return [e for e in self.entries if e.verdict == "REGRESSED"]

    @property
    def verdict(self) -> str:
        """Overall verdict: REGRESSED if anything did, else PASS."""
        return "REGRESSED" if self.regressed else "PASS"


def diff_records(
    a: HistoryRecord,
    b: HistoryRecord,
    threshold: float = 1e-9,
) -> HistoryDiff:
    """Compare record *b* (newer) against *a* (older).

    Accuracy deviations are judged against *threshold*: a deviation that
    grew by more than it REGRESSED, shrank by more than it IMPROVED,
    anything else PASSes.  Baseline/estimate CPIs and counters are
    informational.  Bench speedups regress when the ratio drops more
    than :data:`SPEEDUP_DROP_THRESHOLD` fractionally.
    """
    diff = HistoryDiff(a=a, b=b, threshold=threshold)
    key_a, key_b = a.comparable_key(), b.comparable_key()
    for key in COMPARABLE_KEYS:
        if key_a[key] != key_b[key]:
            diff.notes.append(
                f"records differ in {key}: {key_a[key]!r} vs {key_b[key]!r}"
            )

    benches = sorted(set(a.accuracy) | set(b.accuracy))
    for bench in benches:
        methods_a = a.accuracy.get(bench)
        methods_b = b.accuracy.get(bench)
        if methods_a is None or methods_b is None:
            side = "first" if methods_a is None else "second"
            diff.notes.append(f"{bench}: absent from the {side} record")
            continue
        for method in sorted(set(methods_a) | set(methods_b)):
            values_a = methods_a.get(method)
            values_b = methods_b.get(method)
            if values_a is None or values_b is None:
                side = "first" if values_a is None else "second"
                diff.notes.append(
                    f"{bench}/{method}: absent from the {side} record"
                )
                continue
            for metric in ("cpi_dev", "l1_dev", "l2_dev"):
                va, vb = values_a.get(metric), values_b.get(metric)
                if va is None or vb is None:
                    continue
                delta = vb - va
                if delta > threshold:
                    verdict = "REGRESSED"
                elif delta < -threshold:
                    verdict = "IMPROVED"
                else:
                    verdict = "PASS"
                diff.entries.append(DiffEntry(
                    name=f"{bench}/{method}/{metric}",
                    a=va, b=vb, delta=delta, verdict=verdict,
                ))
            for metric in ("baseline_cpi", "estimate_cpi"):
                va, vb = values_a.get(metric), values_b.get(metric)
                if va is None or vb is None:
                    continue
                diff.entries.append(DiffEntry(
                    name=f"{bench}/{method}/{metric}",
                    a=va, b=vb, delta=vb - va, verdict="INFO",
                ))

    for name in sorted(set(a.counters) | set(b.counters)):
        va, vb = a.counters.get(name), b.counters.get(name)
        delta = (vb - va) if va is not None and vb is not None else None
        diff.entries.append(DiffEntry(
            name=f"counter:{name}", a=va, b=vb, delta=delta, verdict="INFO",
        ))

    for case in sorted(set(a.speedups) | set(b.speedups)):
        va, vb = a.speedups.get(case), b.speedups.get(case)
        if va is None or vb is None:
            side = "first" if va is None else "second"
            diff.notes.append(
                f"speedup {case}: absent from the {side} record"
            )
            continue
        delta = vb - va
        if va > 0 and vb < va * (1.0 - SPEEDUP_DROP_THRESHOLD):
            verdict = "REGRESSED"
        elif va > 0 and vb > va * (1.0 + SPEEDUP_DROP_THRESHOLD):
            verdict = "IMPROVED"
        else:
            verdict = "PASS"
        diff.entries.append(DiffEntry(
            name=f"speedup:{case}", a=va, b=vb, delta=delta, verdict=verdict,
        ))

    # Leaderboard ranks: a method sliding down the table (rank number
    # grew) is a regression.
    for method in sorted(set(a.ranks) | set(b.ranks)):
        va, vb = a.ranks.get(method), b.ranks.get(method)
        if va is None or vb is None:
            side = "first" if va is None else "second"
            diff.notes.append(
                f"rank {method}: absent from the {side} record"
            )
            continue
        delta = vb - va
        if vb > va:
            verdict = "REGRESSED"
        elif vb < va:
            verdict = "IMPROVED"
        else:
            verdict = "PASS"
        diff.entries.append(DiffEntry(
            name=f"rank:{method}", a=va, b=vb, delta=delta, verdict=verdict,
        ))
    return diff


# ----------------------------------------------------------------------
def format_history(
    records: Sequence[HistoryRecord], limit: int = 0
) -> str:
    """Human-readable listing, newest last (``repro obs history``)."""
    if not records:
        return "history is empty"
    chosen = list(records)
    if limit > 0:
        chosen = chosen[-limit:]
    lines = [
        f"{'run_id':<14}{'kind':<13}{'created':<26}{'config':<10}"
        f"{'scale':>7}  benchmarks"
    ]
    for record in chosen:
        benches = ",".join(record.benchmarks)
        if len(benches) > 40:
            benches = benches[:37] + "..."
        lines.append(
            f"{record.run_id:<14}{record.kind:<13}{record.created:<26}"
            f"{(record.config_name or '-'):<10}"
            f"{record.workload_scale:>7.3g}  {benches}"
        )
    if limit > 0 and len(records) > limit:
        lines.append(f"({len(records) - limit} older record(s) not shown)")
    return "\n".join(lines)


def format_diff(diff: HistoryDiff, verbose: bool = False) -> str:
    """Render a :class:`HistoryDiff` (``repro obs diff``'s output).

    Non-PASS entries always print; PASS and INFO detail appears with
    *verbose* (the summary line still counts everything).
    """
    lines = [
        f"diff {diff.a.run_id} ({diff.a.created or 'unknown'}) -> "
        f"{diff.b.run_id} ({diff.b.created or 'unknown'})",
    ]
    for note in diff.notes:
        lines.append(f"note: {note}")
    counts: Dict[str, int] = {}
    for entry in diff.entries:
        counts[entry.verdict] = counts.get(entry.verdict, 0) + 1
    shown = [
        e for e in diff.entries
        if verbose or e.verdict in ("REGRESSED", "IMPROVED")
    ]
    if shown:
        width = max(len(e.name) for e in shown)
        for entry in shown:
            fmt = lambda v: "-" if v is None else f"{v:+.6g}"
            lines.append(
                f"  {entry.verdict:<10}{entry.name:<{width}}  "
                f"{fmt(entry.a)} -> {fmt(entry.b)}"
                + (
                    f"  (delta {entry.delta:+.3g})"
                    if entry.delta is not None else ""
                )
            )
    summary = ", ".join(
        f"{counts.get(v, 0)} {v.lower()}"
        for v in ("PASS", "REGRESSED", "IMPROVED", "INFO")
        if counts.get(v, 0)
    ) or "nothing compared"
    lines.append(f"verdict: {diff.verdict} ({summary})")
    return "\n".join(lines)
