"""Performance-regression microbenchmarks for the analysis hot path.

The paper's claim is *speed at preserved accuracy*; this package records
the speed half so it cannot silently rot.  Three pieces:

* :mod:`repro.bench.suite` — the declarative benchmark suite: k-means
  sweep, signature build, coarse+fine two-level planning, and the
  detailed timing walk, each naming which kernel backends it
  exercises;
* :mod:`repro.bench.runner` — warm-up + measured repetitions, timed via
  the observability span tracer, yielding per-case best/mean seconds and
  the vectorized-over-scalar speedup ratio;
* :mod:`repro.bench.report` — the schema-versioned
  ``BENCH_phase_analysis.json`` artefact (host fingerprint included) and
  the baseline comparison used by CI: speedup *ratios* are asserted
  against committed floors (host-portable, non-flaky), wall-clock only
  on request.

Driven by the ``repro bench`` CLI subcommand; see the README's
"Benchmarking" section for the baseline-update workflow.
"""

from .report import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_REPORT_NAME,
    BenchReport,
    compare_reports,
    load_report,
)
from .runner import CaseResult, run_bench
from .suite import (
    BENCH_SUITE,
    BENCH_WORKLOAD,
    DEFAULT_BENCH_SCALE,
    BenchCase,
    select_cases,
    set_bench_workload,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_SUITE",
    "BENCH_WORKLOAD",
    "BenchCase",
    "BenchReport",
    "CaseResult",
    "DEFAULT_BENCH_SCALE",
    "DEFAULT_REPORT_NAME",
    "compare_reports",
    "load_report",
    "run_bench",
    "select_cases",
    "set_bench_workload",
]
