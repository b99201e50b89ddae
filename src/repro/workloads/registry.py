"""Benchmark registry: look specs up by name and share generated workloads.

Three name shapes resolve here, so every consumer (runner, dispatcher
workers, cache keys) can go from a bare string to a spec, workload or
trace without side channels:

* suite benchmarks (``gzip``);
* family members (``fam:irregular[3]``) — generated deterministically by
  :mod:`repro.workloads.families`;
* imported traces (``import:<path>``) — validated external run-length
  streams (:mod:`repro.workloads.trace_import`).  Imported benchmarks
  carry their own unrolled arrays at the scale they were exported at, so
  :func:`load_trace` returns those verbatim and the requested scale is
  ignored for them.

Family and import names resolve without building the suite's specs.
Generated workloads are memoised *weakly*: one stays shared while any
holder (a runner's :class:`~repro.samplers.PlanContext`, through its
trace) keeps it, and is freed with the last one.  The runner's context
is the one per-benchmark memo; this one only stops two live holders from
generating the same workload twice.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from ..errors import ProgramError
from .generator import Workload, generate_workload
from .spec import BenchmarkSpec
from .suite import QUICK_SUITE_NAMES, SUITE_NAMES, build_suite, scaled_spec

#: Prefix of imported-trace benchmark names.
IMPORT_PREFIX = "import:"

_SPECS: Optional[Dict[str, BenchmarkSpec]] = None
_WORKLOADS: "weakref.WeakValueDictionary[str, Workload]" = (
    weakref.WeakValueDictionary()
)


def _specs() -> Dict[str, BenchmarkSpec]:
    global _SPECS
    if _SPECS is None:
        _SPECS = build_suite()
    return _SPECS


def benchmark_names(quick: bool = False) -> List[str]:
    """Names of the suite benchmarks (canonical order)."""
    return list(QUICK_SUITE_NAMES if quick else SUITE_NAMES)


def get_spec(name: str) -> BenchmarkSpec:
    """Return the spec for benchmark *name* (suite, family or import).

    Family and import names resolve first, so looking one up never
    builds the suite's specs.
    """
    if name.startswith(IMPORT_PREFIX):
        from . import trace_import

        return trace_import.import_spec(name[len(IMPORT_PREFIX):])
    from . import families

    member = families.spec_for(name)
    if member is not None:
        return member
    specs = _specs()
    if name in specs:
        return specs[name]
    raise ProgramError(
        f"unknown benchmark {name!r}; known: {', '.join(sorted(specs))}, "
        f"fam:<family>[i], {IMPORT_PREFIX}<path>"
    )


def load_workload(name: str, scale: float = 1.0) -> Workload:
    """Return the generated workload for benchmark *name*.

    ``scale < 1`` returns a shrunken variant (for tests / smoke runs); scaled
    variants are memoised separately.  The memo is weak: a workload that
    someone still holds is returned again, one that nobody holds is
    generated anew (deterministically, so it is equal).  Imported
    benchmarks were unrolled at their embedded scale, so *scale* does not
    apply to them.
    """
    key = name if scale == 1.0 else f"{name}@{scale:g}"
    workload = _WORKLOADS.get(key)
    if workload is None:
        if name.startswith(IMPORT_PREFIX):
            from . import trace_import

            workload = trace_import.load_import(
                name[len(IMPORT_PREFIX):]
            ).workload
        else:
            spec = get_spec(name)
            if scale != 1.0:
                spec = scaled_spec(spec, scale)
            workload = generate_workload(spec)
        _WORKLOADS[key] = workload
    return workload


def load_trace(
    name: str,
    scale: float = 1.0,
    metrics=None,
):
    """The trace of benchmark *name*: unrolled, or imported verbatim.

    Suite and family benchmarks unroll their workload's schedule
    (deterministic in the spec seed).  Imported benchmarks return the
    validated external arrays unchanged — rebuilding them would defeat
    the point of admitting foreign streams.  *metrics* (a
    :class:`~repro.obs.metrics.MetricsRegistry`) counts import
    rejections.
    """
    if name.startswith(IMPORT_PREFIX):
        from . import trace_import

        return trace_import.imported_trace(
            name[len(IMPORT_PREFIX):], metrics=metrics
        )
    from ..engine.trace import build_trace

    return build_trace(load_workload(name, scale=scale))


def clear_cache() -> None:
    """Drop all memoised workloads and imports (mainly for tests)."""
    _WORKLOADS.clear()
    from . import trace_import

    trace_import.clear_cache()
