"""Dynamic trace generation, functional simulation and profiling."""

from .backend import get_backend, resolve_backend, set_backend, use_backend
from .functional import FunctionalSimulator
from .profiles import (
    CoarseIntervalProfile,
    FixedIntervalProfile,
    FunctionalResult,
    StructureProfile,
    StructureProfiles,
)
from .trace import (
    TRACE_ARRAY_FIELDS,
    Segment,
    SegmentPiece,
    Trace,
    TraceBuilder,
    build_trace,
)

__all__ = [
    "CoarseIntervalProfile",
    "FixedIntervalProfile",
    "FunctionalResult",
    "FunctionalSimulator",
    "Segment",
    "SegmentPiece",
    "StructureProfile",
    "StructureProfiles",
    "TRACE_ARRAY_FIELDS",
    "Trace",
    "TraceBuilder",
    "build_trace",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
