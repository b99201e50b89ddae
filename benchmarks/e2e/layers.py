"""Per-layer tracing from outside the program, for the traced run.

The traced run wraps each layer's public entry points where their callers
look them up (``repro.harness.runner.simulate_point_set``, not only
``repro.sampling.estimate.simulate_point_set``), records one span per call
in memory — name, start, end, parent, workload — and derives the per-layer
metrics from the span tree and the program's own counters.  Nothing under
``src/`` changes; the wrappers are removed again by :meth:`Recorder.restore`.

Spans nest exactly as the calls do, because the traced run is serial: a
span's parent is the innermost wrapped call still open when it began.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, List, Optional

from stats import percentile

#: Registered samplers, in the registry's reporting order.
METHODS = (
    "simpoint", "early_sp", "coasts", "multilevel", "stratified",
    "ranked_set",
)

#: The enclosing call a detail-simulated instruction is attributed to.
PURPOSES = {
    "detailed.simulate_full": "baseline",
    "sampling.points": "points",
    "sampling.diagnostics": "diagnostics",
}


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    def _begin(self, name: str) -> int:
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        })
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._open.pop()

    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span called *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return wrapper

    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr``; :meth:`restore` puts it back."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        from repro.analysis import bic
        from repro.detailed.timing import TimingSimulator
        from repro.engine.functional import FunctionalSimulator
        from repro.harness import runner
        from repro.harness.cache import ResultCache
        from repro.harness.recovery import SuiteJournal
        from repro.sampling import coasts, estimate, simpoint

        for module in (simpoint, coasts):
            self.patch(module, "cluster_with_bic",
                       self.timed("analysis.cluster", bic.cluster_with_bic))
        for attr in ("profile_fixed_intervals", "profile_coarse_intervals",
                     "profile_structures"):
            self.patch(FunctionalSimulator, attr, self.timed(
                "engine.profile", getattr(FunctionalSimulator, attr)))
        self.patch(runner, "load_trace",
                   self.timed("engine.trace_build", runner.load_trace))

        get_sampler = runner.get_sampler

        def timed_sampler(name: str):
            spec = get_sampler(name)
            return dataclasses.replace(spec, build_plan=self.timed(
                f"samplers.plan.{name}", spec.build_plan))

        self.patch(runner, "get_sampler", timed_sampler)

        self.patch(TimingSimulator, "simulate_full", self.timed(
            "detailed.simulate_full", TimingSimulator.simulate_full))
        simulate_range = TimingSimulator.simulate_range

        def counted_range(sim, start, end, state=None, result=None):
            before = result.instructions if result is not None else 0
            index = self._begin("detailed.simulate_range")
            try:
                out = simulate_range(sim, start, end, state, result)
            finally:
                self._end(index)
            self.spans[index]["insts"] = out.instructions - before
            return out

        self.patch(TimingSimulator, "simulate_range", counted_range)
        points = self.timed("sampling.points", estimate.simulate_point_set)
        self.patch(runner, "simulate_point_set", points)
        self.patch(estimate, "simulate_point_set", points)
        self.patch(runner, "simulate_tagged_ranges", self.timed(
            "sampling.diagnostics", runner.simulate_tagged_ranges))

        self.patch(runner.ExperimentRunner, "run_benchmark", self.timed(
            "harness.run", runner.ExperimentRunner.run_benchmark))
        cache_get = ResultCache.get

        def counted_get(cache, key):
            index = self._begin("harness.cache_get")
            payload = None
            try:
                payload = cache_get(cache, key)
            finally:
                self._end(index, hit=payload is not None)
            return payload

        self.patch(ResultCache, "get", counted_get)
        self.patch(ResultCache, "put", self.timed(
            "harness.cache_put", ResultCache.put))
        self.patch(SuiteJournal, "record_run", self.timed(
            "harness.journal", SuiteJournal.record_run))
        self.patch(runner, "record_diag_metrics", self.timed(
            "obs.record_diag", runner.record_diag_metrics))


# ----------------------------------------------------------------------
def enclosing(spans: List[dict], span: dict,
              chosen: Callable[[str], bool]) -> Optional[dict]:
    """The innermost span around *span* whose name is *chosen*, if any."""
    parent = span["parent"]
    while parent is not None and not chosen(spans[parent]["name"]):
        parent = spans[parent]["parent"]
    return None if parent is None else spans[parent]


def covered_seconds(spans: List[dict], chosen: Callable[[str], bool]) -> float:
    """Wall time inside spans whose name is *chosen*, counting a chosen span
    nested in another chosen span once."""
    return sum(span["end"] - span["start"] for span in spans
               if chosen(span["name"])
               and enclosing(spans, span, chosen) is None)


def self_seconds(spans: List[dict], name: str) -> float:
    """Time inside calls named *name* not covered by their child spans."""
    own = {i: s["end"] - s["start"] for i, s in enumerate(spans)
           if s["name"] == name}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return sum(own.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def purpose_split(spans: List[dict]) -> Dict[str, int]:
    """Detail-simulated instructions by purpose.

    "other" (simulated outside every attributed call) is not a metric:
    anything there makes the summed purposes disagree with the program's
    own counter, which the correctness gate in ``run.py`` checks.
    """
    insts = dict.fromkeys(("baseline", "points", "diagnostics", "other"), 0)
    for span in spans:
        if span["name"] != "detailed.simulate_range":
            continue
        call = enclosing(spans, span, PURPOSES.__contains__)
        insts["other" if call is None else PURPOSES[call["name"]]] += \
            span["insts"]
    return insts


def layer_metrics(spans: List[dict], runs: List[dict]) -> Dict[str, float]:
    """The per-layer metrics one traced rep gives on its own.

    *runs* are the ``BenchmarkRun.to_dict()`` payloads the traced phase
    returned.  The metrics that also need the untraced reps (parallel
    efficiency, pool counters, tracing overhead) are added by ``run.py``.
    """
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def seconds(name: str) -> float:
        return covered_seconds(spans, lambda other: other == name)

    ranges = by_name.get("detailed.simulate_range", [])
    insts = purpose_split(spans)
    detailed_s = self_seconds(spans, "detailed.simulate_range")
    detailed_insts = sum(insts.values())
    gets = by_name.get("harness.cache_get", [])
    run_seconds = [span["end"] - span["start"]
                   for span in by_name.get("harness.run", [])]
    sampled_s = covered_seconds(spans, lambda name: name.startswith(
        ("samplers.plan.", "engine.profile", "sampling.points")))

    metrics = {
        "analysis.cluster_s": seconds("analysis.cluster"),
        "analysis.cluster_calls": len(by_name.get("analysis.cluster", [])),
    }
    for method in METHODS:
        metrics[f"samplers.plan_s.{method}"] = seconds(
            f"samplers.plan.{method}")
    for method in METHODS:
        metrics[f"samplers.detail_insts.{method}"] = sum(
            run["methods"][method]["stats"]["detail_instructions"]
            for run in runs if method in run["methods"]
        )
    metrics.update({
        "engine.trace_build_s": seconds("engine.trace_build"),
        "engine.profile_s": seconds("engine.profile"),
        "detailed.simulate_s": detailed_s,
        "detailed.calls": len(ranges),
        "detailed.minst_per_s": _ratio(detailed_insts, detailed_s) / 1e6,
        "detailed.insts.baseline": insts["baseline"],
        "detailed.insts.points": insts["points"],
        "detailed.insts.diagnostics": insts["diagnostics"],
        "detailed.insts_per_trace_inst": _ratio(
            detailed_insts, sum(run["total_instructions"] for run in runs)),
        "sampling.points_s": seconds("sampling.points"),
        "sampling.diagnostics_s": seconds("sampling.diagnostics"),
        "sampling.measured_speedup_vs_full": _ratio(
            seconds("detailed.simulate_full"), sampled_s),
        "harness.run_s_p50": percentile(run_seconds, 50),
        "harness.run_s_p90": percentile(run_seconds, 90),
        "harness.run_count": len(run_seconds),
        "harness.run_s_sum": sum(run_seconds),
        "harness.cache_get_s": seconds("harness.cache_get"),
        "harness.cache_put_s": seconds("harness.cache_put"),
        "harness.cache_hit_ratio": _ratio(
            sum(1 for span in gets if span["hit"]), len(gets)),
        "harness.journal_s": seconds("harness.journal"),
        "obs.record_diag_s": seconds("obs.record_diag"),
    })
    return metrics
