"""The detailed walk reproduces a committed bit-exact snapshot.

``tests/data/walk_snapshot.json`` holds every :class:`SimulationResult`
field (floats as ``float.hex``) of a fixed set of walks, recorded from
the walk before its fast paths (the eviction-free L1I, whole-segment
visits and the recency-list eviction) existed.  The cases cover:

* full walks of the quick set under configs A and B;
* the same full walks with an 8-line direct-mapped L1I, whose code
  conflicts, so the real set-associative L1I runs;
* a seeded sequence of overlapping ``simulate_range`` calls on one
  carried state (ranges that cut a segment, then re-enter it from its
  start), under config A and the conflicting L1I;
* a hand-built trace whose segments repeat a memory block;
* full walks of the first member of every program family under configs
  A and B at scale 0.25: cache-hostile and multi-regime members drive
  the occupancy ledgers' overflow and drain loop far harder than the
  quick set does.

The fast paths claim bit-identity, so this test admits no tolerance.
Regenerate the file only for a deliberate change of the timing model::

    PYTHONPATH=src python tests/test_walk_snapshot.py > tests/data/walk_snapshot.json
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.config import CONFIG_A, CONFIG_B, CacheConfig
from repro.detailed import SimulationResult, TimingSimulator
from repro.engine import Segment, Trace
from repro.workloads import QUICK_SUITE_NAMES
from repro.workloads.families import family_names, member_name
from repro.workloads.registry import load_trace

SNAPSHOT = Path(__file__).parent / "data" / "walk_snapshot.json"
SCALE = 0.12
FAMILY_SCALE = 0.25
#: 8 lines, direct-mapped: every quick program's code conflicts in it.
TINY_IL1 = replace(
    CONFIG_A, name="tiny_il1", icache=CacheConfig("il1", 256, 1, 32, 1)
)


def encode(result: SimulationResult) -> Dict[str, object]:
    """Every field of *result*, floats as their exact hex form."""
    return {
        field: value.hex() if isinstance(value, float) else value
        for field, value in asdict(result).items()
    }


def overlapping_ranges(
    trace: Trace, count: int, seed: int
) -> List[Tuple[int, int]]:
    """A seeded sequence of ranges that jump back over each other.

    About a third re-enter, from its first instruction, the segment the
    previous range ended in, so a carried state meets a segment whose
    visits an earlier cut left open.
    """
    rng = random.Random(seed)
    total = trace.total_instructions
    starts = [int(s) for s in trace.seg_starts[:-1]]
    ranges: List[Tuple[int, int]] = []
    for _ in range(count):
        draw = rng.random()
        if ranges and draw < 0.35:
            start = starts[trace.locate(ranges[-1][1] - 1)]
        elif draw < 0.7:
            start = rng.choice(starts)
        else:
            start = rng.randrange(total - 1)
        end = min(total, start + rng.randrange(1, total // 8))
        ranges.append((start, end))
    return ranges


def repeated_block_trace(base: Trace) -> Trace:
    """Segments whose block sequence runs one loop body twice, so a
    memory block recurs within a segment (imported traces may do so)."""
    program = base.program
    loop = next(i for i, loop_id in enumerate(base.loop_id.tolist())
                if loop_id >= 0)
    body = base.segment_at(loop).blocks
    assert any(program.blocks[b].memory_instructions for b in body)
    twice = body + body
    segments = [
        Segment(blocks=twice, reps=3),
        Segment(blocks=twice, reps=9, loop_id=4),
        Segment(blocks=body, reps=5),
        Segment(blocks=twice, reps=6, loop_id=4),
        Segment(blocks=body, reps=2, loop_id=5),
    ]
    return Trace(base.workload, segments)


def walks() -> Iterator[Tuple[str, SimulationResult]]:
    """Every snapshot case, in order, as ``(name, result)``."""
    traces = {name: load_trace(name, scale=SCALE)
              for name in QUICK_SUITE_NAMES}
    for name, trace in traces.items():
        for config in (CONFIG_A, CONFIG_B, TINY_IL1):
            simulator = TimingSimulator(trace, config)
            yield f"full/{name}/{config.name}", simulator.simulate_full()
    gzip = traces["gzip"]
    for config in (CONFIG_A, TINY_IL1):
        simulator = TimingSimulator(gzip, config)
        state = simulator.new_state()
        for index, (start, end) in enumerate(
                overlapping_ranges(gzip, count=30, seed=23)):
            yield (f"carried/gzip/{config.name}/{index}",
                   simulator.simulate_range(start, end, state=state))
    repeated = repeated_block_trace(gzip)
    simulator = TimingSimulator(repeated, CONFIG_A)
    yield "full/repeated/config_a", simulator.simulate_full()
    state = simulator.new_state()
    for index, (start, end) in enumerate(
            overlapping_ranges(repeated, count=12, seed=5)):
        yield (f"carried/repeated/config_a/{index}",
               simulator.simulate_range(start, end, state=state))
    for family in family_names():
        member = member_name(family, 0)
        trace = load_trace(member, scale=FAMILY_SCALE)
        for config in (CONFIG_A, CONFIG_B):
            simulator = TimingSimulator(trace, config)
            yield f"full/{member}/{config.name}", simulator.simulate_full()


def render(cases: Dict[str, Dict[str, object]]) -> str:
    """The snapshot file's text: one case per line."""
    lines = [f"  {json.dumps(name)}: {json.dumps(fields, sort_keys=True)}"
             for name, fields in cases.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_walks_reproduce_snapshot(snapshot):
    walked = {name: encode(result) for name, result in walks()}
    assert list(walked) == list(snapshot)
    mismatched = [name for name in walked if walked[name] != snapshot[name]]
    assert not mismatched, (
        f"{len(mismatched)} walks differ from the snapshot, first "
        f"{mismatched[0]}: {walked[mismatched[0]]} != "
        f"{snapshot[mismatched[0]]}"
    )


if __name__ == "__main__":
    print(render({name: encode(result) for name, result in walks()}), end="")
