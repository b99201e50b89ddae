"""Accuracy diagnostics: per-phase error attribution + clustering quality.

The paper's claim is an accuracy claim (Table II), so the observability
stack must answer not just *where time went* (spans) but *where error
came from*.  This module is the schema and math for that:

* **Per-phase error attribution.**  A sampling estimate is the weighted
  mean of representative metrics, ``est = (1/W) * sum_p w_p * rep_p``,
  and the covered truth decomposes the same way over per-phase means,
  so the signed deviation splits exactly into per-phase contributions::

      est - base = sum_p c_p + residual
      c_p        = (rep_term_p - w_p * phase_mean_p) / W

  where ``rep_term_p`` sums the phase's detail-simulated leaves
  (``w_leaf * metric_leaf``) and the *residual* collects everything the
  phase rows cannot explain: coverage discarded by the <1% rule,
  rate-aggregation bias, and weight normalisation.  CPI contributions
  are relative to the baseline CPI and hit-rate contributions are
  absolute — the same units as :class:`repro.detailed.results.Deviation`
  — so the signed rows sum to the Table II number for each benchmark.

* **Clustering-quality telemetry.**  Per-phase intra-cluster variance,
  simplified silhouette, representative-to-centroid distance, coarse
  point size vs. the 300M (scaled) re-sampling threshold, and the
  coverage the boundary filter discarded.  These are the SimPoint-style
  predictors of sampling error; gcc's pathological giant coarse point
  (EXPERIMENTS.md) lights up here as an ``oversized`` flag.

Each run publishes its diagnostics once, as ``MethodDiag.to_dict()``
on its ``run`` span, so a ``--trace-out`` file is self-contained:
``repro obs diag trace.jsonl`` rebuilds the error-budget tables from
the run spans, one per (benchmark, config, method).  Only each
method's total error and residual are also gauges, for live
``/metrics``.

Both records are frozen.  A sampler builds its plan-time
:class:`MethodDiag` once (phases, weights, cluster quality and the
per-phase member bounds), and a plan serves every machine config, so
that record is never mutated: :func:`attribute` is a pure function
from it and one walk's results to a new, attributed record without
member bounds.  This module deliberately imports nothing from the
sampling or harness layers (they import *it*).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import HarnessError
from .metrics import register_help

# ----------------------------------------------------------------------
# the two per-method gauges (gauges, not counters: re-publishing a run's
# diagnostics on a cache hit or a retry must be idempotent)
# ----------------------------------------------------------------------
DIAG_TOTAL_ERROR = "repro_diag_total_error"
DIAG_RESIDUAL = "repro_diag_residual"

register_help(
    DIAG_TOTAL_ERROR, "Signed whole-run deviation vs the baseline."
)
register_help(
    DIAG_RESIDUAL, "Total deviation minus the per-phase contributions."
)

#: The accuracy metrics attribution covers, in reporting order.
DIAG_METRICS: Tuple[str, ...] = ("cpi", "l1", "l2")

#: A representative farther than this multiple of the cluster's mean
#: member-to-centroid distance is flagged ``FAR-REP`` in reports.
FAR_REP_FACTOR = 2.0


@dataclass(frozen=True)
class PhaseDiag:
    """Diagnostics of one phase (cluster) of one sampling plan."""

    phase: int
    weight: float
    n_members: int
    instructions: int
    #: Size of the phase's coarse/representative point, in instructions.
    point_size: int
    rep_index: int
    #: Euclidean distance of the representative's signature to its
    #: centroid, and the cluster's mean member distance next to it.
    rep_distance: float
    mean_distance: float
    #: Intra-cluster variance: mean squared member-to-centroid distance.
    variance: float
    #: Mean simplified (centroid-based) silhouette of the members.
    silhouette: float
    resampled: bool = False
    #: True when the point exceeds the re-sampling threshold — the
    #: paper's "giant coarse point" pathology (gcc).
    oversized: bool = False
    #: Set by :func:`attribute` after detail simulation: representative
    #: and phase-mean metric values, and the signed error contribution
    #: per metric (Deviation units; see the module docstring).
    rep_values: Dict[str, float] = field(default_factory=dict)
    phase_values: Dict[str, float] = field(default_factory=dict)
    contributions: Dict[str, float] = field(default_factory=dict)

    @property
    def far_representative(self) -> bool:
        """Is the representative unusually far from its centroid?"""
        return (
            self.n_members > 1
            and self.mean_distance > 0.0
            and self.rep_distance > FAR_REP_FACTOR * self.mean_distance
        )

    def flags(self) -> List[str]:
        """Human-readable anomaly flags for the report table."""
        out: List[str] = []
        if self.oversized:
            out.append("GIANT-COARSE-POINT")
        if self.far_representative:
            out.append("FAR-REP")
        if self.n_members > 1 and self.silhouette < 0.0:
            out.append("LOW-SEPARATION")
        if self.resampled:
            out.append("resampled")
        return out

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "weight": self.weight,
            "n_members": self.n_members,
            "instructions": self.instructions,
            "point_size": self.point_size,
            "rep_index": self.rep_index,
            "rep_distance": self.rep_distance,
            "mean_distance": self.mean_distance,
            "variance": self.variance,
            "silhouette": self.silhouette,
            "resampled": self.resampled,
            "oversized": self.oversized,
            "rep_values": dict(self.rep_values),
            "phase_values": dict(self.phase_values),
            "contributions": dict(self.contributions),
        }

    @staticmethod
    def from_dict(payload: dict) -> "PhaseDiag":
        return PhaseDiag(
            phase=int(payload["phase"]),
            weight=float(payload["weight"]),
            n_members=int(payload["n_members"]),
            instructions=int(payload["instructions"]),
            point_size=int(payload["point_size"]),
            rep_index=int(payload["rep_index"]),
            rep_distance=float(payload["rep_distance"]),
            mean_distance=float(payload["mean_distance"]),
            variance=float(payload["variance"]),
            silhouette=float(payload["silhouette"]),
            resampled=bool(payload.get("resampled", False)),
            oversized=bool(payload.get("oversized", False)),
            rep_values=dict(payload.get("rep_values", {})),
            phase_values=dict(payload.get("phase_values", {})),
            contributions=dict(payload.get("contributions", {})),
        )


@dataclass(frozen=True)
class MethodDiag:
    """Diagnostics of one sampling method on one benchmark.

    The sampler's plan-time record holds the clustering-quality fields
    and the per-phase member bounds; :func:`attribute` derives the
    run's record, with the attribution fields and without the bounds.
    ``members`` never serialises — it is only needed to aggregate
    per-phase truth.
    """

    method: str
    benchmark: str
    n_clusters: int
    n_intervals: int
    coverage_discarded: float
    resample_threshold: int
    phases: Tuple[PhaseDiag, ...] = ()
    #: Signed residual per metric: total minus the phase contributions
    #: (coverage, rate-aggregation bias, weight normalisation).
    residual: Dict[str, float] = field(default_factory=dict)
    #: Signed total deviation per metric (Deviation units).
    total_error: Dict[str, float] = field(default_factory=dict)
    #: Plan-time only: phase -> [(start, end), ...] member interval bounds.
    members: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict, repr=False,
    )

    # ------------------------------------------------------------------
    @property
    def n_oversized(self) -> int:
        """Phases whose point exceeds the re-sampling threshold."""
        return sum(1 for row in self.phases if row.oversized)

    def sorted_phases(self) -> List[PhaseDiag]:
        """Phases ordered worst-first by absolute CPI contribution."""
        return sorted(
            self.phases,
            key=lambda row: -abs(row.contributions.get("cpi", 0.0)),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "benchmark": self.benchmark,
            "n_clusters": self.n_clusters,
            "n_intervals": self.n_intervals,
            "coverage_discarded": self.coverage_discarded,
            "resample_threshold": self.resample_threshold,
            "phases": [row.to_dict() for row in self.phases],
            "residual": dict(self.residual),
            "total_error": dict(self.total_error),
        }

    @staticmethod
    def from_dict(payload: dict) -> "MethodDiag":
        return MethodDiag(
            method=payload["method"],
            benchmark=payload["benchmark"],
            n_clusters=int(payload["n_clusters"]),
            n_intervals=int(payload["n_intervals"]),
            coverage_discarded=float(payload["coverage_discarded"]),
            resample_threshold=int(payload["resample_threshold"]),
            phases=tuple(
                PhaseDiag.from_dict(p) for p in payload.get("phases", [])
            ),
            residual=dict(payload.get("residual", {})),
            total_error=dict(payload.get("total_error", {})),
        )


# ----------------------------------------------------------------------
# sampler-side construction
# ----------------------------------------------------------------------
def build_method_diag(
    method: str,
    benchmark: str,
    labels: Sequence[int],
    picks: Sequence[int],
    weights: Sequence[float],
    bounds: Sequence[Tuple[int, int]],
    instructions: Sequence[int],
    quality,
    resample_threshold: int,
    coverage_discarded: float = 0.0,
) -> MethodDiag:
    """Assemble a :class:`MethodDiag` from one clustering's raw pieces.

    *labels*, *bounds* and *instructions* are per interval; *picks* and
    *weights* per phase (``picks[p] < 0`` marks an empty phase, skipped
    exactly like the samplers skip it when building the plan).  *quality*
    is duck-typed (``variances``/``silhouettes`` per cluster,
    ``member_distances`` per interval) so this module needs no import
    from the analysis layer — the samplers pass
    :class:`repro.analysis.kmeans.ClusterQuality`.
    """
    phases: List[PhaseDiag] = []
    members: Dict[int, List[Tuple[int, int]]] = {}
    for phase, pick in enumerate(picks):
        pick = int(pick)
        if pick < 0:
            continue
        indices = [i for i, label in enumerate(labels) if label == phase]
        distances = [float(quality.member_distances[i]) for i in indices]
        point_size = int(bounds[pick][1]) - int(bounds[pick][0])
        phases.append(PhaseDiag(
            phase=phase,
            weight=float(weights[phase]),
            n_members=len(indices),
            instructions=int(sum(instructions[i] for i in indices)),
            point_size=point_size,
            rep_index=pick,
            rep_distance=float(quality.member_distances[pick]),
            mean_distance=(
                sum(distances) / len(distances) if distances else 0.0
            ),
            variance=float(quality.variances[phase]),
            silhouette=float(quality.silhouettes[phase]),
            oversized=point_size > resample_threshold,
        ))
        members[phase] = [
            (int(bounds[i][0]), int(bounds[i][1])) for i in indices
        ]
    return MethodDiag(
        method=method,
        benchmark=benchmark,
        n_clusters=len(picks),
        n_intervals=len(labels),
        coverage_discarded=coverage_discarded,
        resample_threshold=int(resample_threshold),
        phases=tuple(phases),
        members=members,
    )


# ----------------------------------------------------------------------
# run-side attribution
# ----------------------------------------------------------------------
def attribute(
    diag: MethodDiag,
    baseline: Dict[str, float],
    estimate: Dict[str, float],
    rep_terms: Dict[int, Dict[str, float]],
    phase_values: Dict[int, Dict[str, float]],
    weight_total: float,
) -> MethodDiag:
    """The run's record: plan-time *diag* with the attribution filled in.

    *rep_terms* maps phase -> unnormalised representative terms
    (``sum over the phase's leaves of w_leaf * metric``);
    *phase_values* maps phase -> the phase's true per-metric means
    (aggregated over every member interval); *weight_total* is the
    plan's total leaf weight ``W``.  CPI rows are divided by the
    baseline CPI so contributions line up with Table II's relative CPI
    deviation; hit-rate rows stay absolute.  A phase missing from
    either map keeps its plan-time row.  *diag* is not changed, and the
    returned record carries no member bounds.
    """
    base_cpi = baseline["cpi"]
    total_error = {
        "cpi": (estimate["cpi"] - baseline["cpi"]) / base_cpi,
        "l1": estimate["l1"] - baseline["l1"],
        "l2": estimate["l2"] - baseline["l2"],
    }
    sums = {name: 0.0 for name in DIAG_METRICS}
    rows: List[PhaseDiag] = []
    for row in diag.phases:
        term = rep_terms.get(row.phase)
        truth = phase_values.get(row.phase)
        if term is None or truth is None:
            rows.append(row)
            continue
        contributions: Dict[str, float] = {}
        for name in DIAG_METRICS:
            contribution = (
                term[name] - row.weight * truth[name]
            ) / weight_total
            if name == "cpi":
                contribution /= base_cpi
            contributions[name] = contribution
            sums[name] += contribution
        rows.append(replace(
            row,
            phase_values=dict(truth),
            rep_values={
                name: (term[name] / row.weight if row.weight > 0 else 0.0)
                for name in DIAG_METRICS
            },
            contributions=contributions,
        ))
    return replace(
        diag,
        phases=tuple(rows),
        residual={
            name: total_error[name] - sums[name] for name in DIAG_METRICS
        },
        total_error=total_error,
        members={},
    )


# ----------------------------------------------------------------------
# publishing (run span + gauges) and reading back from spans
# ----------------------------------------------------------------------
def record_diag_metrics(
    registry, span, config: str, diags: Dict[str, dict]
) -> None:
    """Publish one run's diagnostics on its ``run`` *span* and *registry*.

    *diags* is the one serialised form, ``{method:
    MethodDiag.to_dict()}``: the runner passes the ``diagnostics`` of
    the payload it read from (or published to) the result cache, and the
    span gets it as its ``diagnostics`` attribute.  Worker span trees
    carry it to the driver and into ``--trace-out``, where
    :func:`run_diagnostics` reads it back.  *registry* (a
    :class:`~repro.obs.metrics.MetricsRegistry`) gets each method's total
    error and residual per metric, so live ``/metrics`` shows accuracy;
    each method's labels are sorted once, not once per gauge.  Publishing
    the same run twice is idempotent.
    """
    span.set(diagnostics=diags)
    for diag in diags.values():
        items = registry.label_items({
            "benchmark": diag["benchmark"], "config": config,
            "method": diag["method"], "metric": "",
        })
        at = [key for key, _ in items].index("metric")
        total_error = diag["total_error"]
        residual = diag["residual"]
        for name in DIAG_METRICS:
            gauge_items = items[:at] + (("metric", name),) + items[at + 1:]
            if name in total_error:
                registry.gauge_at(DIAG_TOTAL_ERROR, gauge_items).set(
                    total_error[name]
                )
            if name in residual:
                registry.gauge_at(DIAG_RESIDUAL, gauge_items).set(
                    residual[name]
                )


def run_diagnostics(spans) -> Dict[Tuple[str, str], Dict[str, MethodDiag]]:
    """``{(benchmark, config): {method: MethodDiag}}`` from ``run`` spans.

    *spans* is any iterable of :class:`~repro.obs.spans.Span` (a live
    tracer's or a parsed trace's).  A later span of the same run (a
    retry, a cache hit, a partial hit) adds or replaces methods.
    """
    views: Dict[Tuple[str, str], Dict[str, MethodDiag]] = {}
    for span in spans:
        if span.name != "run" or "diagnostics" not in span.attributes:
            continue
        key = (span.attributes["benchmark"], span.attributes["config"])
        per_run = views.setdefault(key, {})
        for method, payload in span.attributes["diagnostics"].items():
            per_run[method] = MethodDiag.from_dict(payload)
    return views


# ----------------------------------------------------------------------
# human report (repro obs diag)
# ----------------------------------------------------------------------
def _pct(value: float) -> str:
    return f"{100.0 * value:+.3f}%"


def format_diag_report(
    views: Dict[Tuple[str, str], Dict[str, MethodDiag]],
    benchmark: Optional[str] = None,
    method: Optional[str] = None,
) -> str:
    """Render one error-budget table per (benchmark, config, method) of
    :func:`run_diagnostics` *views*, worst phase first.

    Raises :class:`~repro.errors.HarnessError` when *views* holds
    diagnostics but the *benchmark*/*method* filter selects none.
    """
    lines: List[str] = []
    for bench, config in sorted(views):
        if benchmark is not None and bench != benchmark:
            continue
        methods = views[bench, config]
        names = sorted(methods) if method is None else [method]
        for name in names:
            diag = methods.get(name)
            if diag is None:
                continue
            if lines:
                lines.append("")
            lines.extend(_format_method(diag, config))
    if not lines:
        held = [
            f"{bench}/{config}/{name}" for bench, config in sorted(views)
            for name in sorted(views[bench, config])
        ]
        if held:
            wanted = ", ".join(
                f"{key} {value!r}"
                for key, value in (("benchmark", benchmark),
                                   ("method", method))
                if value is not None
            )
            raise HarnessError(
                f"no run diagnostics match {wanted}; this trace holds "
                f"(benchmark/config/method): {', '.join(held)}"
            )
        lines.append("no run diagnostics in this trace (its run spans "
                     "carry none; record a run, suite or experiment with "
                     "--trace-out)")
    return "\n".join(lines)


def _format_method(diag: MethodDiag, config: str) -> List[str]:
    lines = [
        f"{diag.benchmark} / {diag.method} ({config}): {diag.n_clusters} "
        f"phase(s) over {diag.n_intervals} interval(s), "
        f"coverage discarded {diag.coverage_discarded:.2%}, "
        f"re-sample threshold {diag.resample_threshold}",
    ]
    total = diag.total_error
    if total:
        lines.append(
            "total signed deviation: "
            f"CPI {_pct(total.get('cpi', 0.0))}, "
            f"L1 {_pct(total.get('l1', 0.0))}, "
            f"L2 {_pct(total.get('l2', 0.0))}"
        )
    header = (
        f"{'phase':>5}  {'weight':>7}  {'size':>9}  {'members':>7}  "
        f"{'rep/mean':>9}  {'silh':>6}  {'dCPI':>9}  {'dL1':>9}  "
        f"{'dL2':>9}  flags"
    )
    lines.append(header)
    for row in diag.sorted_phases():
        ratio = (
            row.rep_distance / row.mean_distance
            if row.mean_distance > 0 else 0.0
        )
        lines.append(
            f"{row.phase:>5}  {row.weight:>7.4f}  {row.point_size:>9}  "
            f"{row.n_members:>7}  {ratio:>9.2f}  {row.silhouette:>6.2f}  "
            f"{_pct(row.contributions.get('cpi', 0.0)):>9}  "
            f"{_pct(row.contributions.get('l1', 0.0)):>9}  "
            f"{_pct(row.contributions.get('l2', 0.0)):>9}  "
            f"{' '.join(row.flags())}"
        )
    if diag.residual:
        lines.append(
            f"{'resid':>5}  {'':>7}  {'':>9}  {'':>7}  {'':>9}  {'':>6}  "
            f"{_pct(diag.residual.get('cpi', 0.0)):>9}  "
            f"{_pct(diag.residual.get('l1', 0.0)):>9}  "
            f"{_pct(diag.residual.get('l2', 0.0)):>9}  "
            f"coverage/aggregation"
        )
    return lines
