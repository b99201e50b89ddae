"""The trace builder reproduces a committed snapshot of every trace.

``tests/data/trace_snapshot.json`` holds, for the 16 suite benchmarks at
scales 1.0 and 0.25 and members ``[0, 32)`` of each of the five families
at scale 0.25, a sha256 over the six canonical trace arrays
(:data:`~repro.engine.trace.TRACE_ARRAY_FIELDS`: name, dtype, shape and
bytes of each), next to the segment and instruction counts.

It was recorded from the builder that appended every segment's columns
to Python lists in one walk.  The builder claims bit-identity with that
walk (and with the scalar object builder), so this test admits no
tolerance.  Regenerate the file only for a deliberate change of trace
synthesis::

    PYTHONPATH=src python tests/test_trace_snapshot.py > tests/data/trace_snapshot.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.engine.trace import TRACE_ARRAY_FIELDS, Trace
from repro.workloads import SUITE_NAMES
from repro.workloads.families import family_names, member_name
from repro.workloads.registry import load_trace

SNAPSHOT = Path(__file__).parent / "data" / "trace_snapshot.json"
MEMBERS_PER_FAMILY = 32


def trace_cases() -> Tuple[Tuple[str, float], ...]:
    """Every snapshot ``(name, scale)``: the suite at 1.0 and 0.25, then
    each family's members at 0.25."""
    members = tuple(member_name(family, index)
                    for family in family_names()
                    for index in range(MEMBERS_PER_FAMILY))
    return (tuple((name, 1.0) for name in SUITE_NAMES)
            + tuple((name, 0.25) for name in SUITE_NAMES + members))


def trace_digest(trace: Trace) -> str:
    """sha256 over the canonical arrays, in canonical order."""
    digest = hashlib.sha256()
    for field in TRACE_ARRAY_FIELDS:
        array = getattr(trace, field)
        digest.update(f"{field} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def cases() -> Iterator[Tuple[str, Dict[str, object]]]:
    """Every snapshot case, in order, as ``(name@scale, fields)``."""
    for name, scale in trace_cases():
        trace = load_trace(name, scale=scale)
        yield f"{name}@{scale:g}", {
            "sha256": trace_digest(trace),
            "segments": trace.n_segments,
            "instructions": trace.total_instructions,
        }


def render(snapshot: Dict[str, Dict[str, object]]) -> str:
    """The snapshot file's text: one case per line."""
    lines = [f"  {json.dumps(name)}: {json.dumps(fields, sort_keys=True)}"
             for name, fields in snapshot.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_traces_reproduce_snapshot(snapshot):
    built = dict(cases())
    assert list(built) == list(snapshot)
    mismatched = [name for name in built if built[name] != snapshot[name]]
    assert not mismatched, (
        f"{len(mismatched)} traces differ from the snapshot, first "
        f"{mismatched[0]}"
    )


if __name__ == "__main__":
    print(render(dict(cases())), end="")
