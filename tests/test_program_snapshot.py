"""Program synthesis and static scheduling reproduce a committed snapshot.

``tests/data/program_snapshot.json`` holds, for every registered program
(the 16 suite benchmarks and members ``[0, 32)`` of each of the five
families, at scales 1.0 and 0.25):

* a sha256 over the generated :class:`Program` — every block's name,
  address, branch bias and instructions, the CFG, the regions and the
  loop nest;
* ``BlockScheduler.schedule_program`` under configs A and B, each
  block's base cycles as ``float.hex``.

It was recorded from the builder that drew every operand through
numpy's scalar ``Generator.random``/``Generator.integers`` calls and the
scheduler that looked latencies and unit classes up in dicts.  The
builder's bulk draw and the opcode-member properties claim
bit-identity, so this test admits no tolerance.  Regenerate the file
only for a deliberate change of program synthesis or of the static
timing model::

    PYTHONPATH=src python tests/test_program_snapshot.py > tests/data/program_snapshot.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.isa.program import Program
from repro.uarch.scheduler import BlockScheduler
from repro.workloads import SUITE_NAMES
from repro.workloads.families import family_names, member_name
from repro.workloads.generator import generate_workload
from repro.workloads.registry import get_spec
from repro.workloads.suite import scaled_spec

SNAPSHOT = Path(__file__).parent / "data" / "program_snapshot.json"
SCALES = (1.0, 0.25)
MEMBERS_PER_FAMILY = 32


def program_names() -> Tuple[str, ...]:
    """Every snapshot program: the suite, then each family's members."""
    members = tuple(member_name(family, index)
                    for family in family_names()
                    for index in range(MEMBERS_PER_FAMILY))
    return tuple(SUITE_NAMES) + members


def program_digest(program: Program) -> str:
    """sha256 over everything :class:`Program` holds, in a fixed order."""
    parts = [program.name, str(program.entry)]
    for block in program.blocks:
        parts.append(f"B {block.block_id} {block.name} {block.address} "
                     f"{block.branch_bias.hex()}")
        for inst in block.instructions:
            parts.append(f"I {inst.opcode.value} {inst.dest} {inst.srcs} "
                         f"{inst.mem_region} {inst.mem_stride} "
                         f"{inst.mem_offset}")
    for src in sorted(program.successors):
        parts.append(f"E {src} {program.successors[src]}")
    for region in program.regions:
        parts.append(f"R {region.region_id} {region.name} {region.base} "
                     f"{region.size}")
    for loop in program.loops:
        parts.append(f"L {loop.loop_id} {loop.header} "
                     f"{sorted(loop.blocks)} {loop.parent} {loop.depth}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def cases() -> Iterator[Tuple[str, Dict[str, object]]]:
    """Every snapshot case, in order, as ``(name@scale, fields)``."""
    schedulers = {config.name: BlockScheduler(config)
                  for config in (CONFIG_A, CONFIG_B)}
    for scale in SCALES:
        for name in program_names():
            spec = get_spec(name)
            if scale != 1.0:
                spec = scaled_spec(spec, scale)
            program = generate_workload(spec).program
            fields: Dict[str, object] = {"sha256": program_digest(program)}
            for config_name, scheduler in schedulers.items():
                fields[config_name] = [
                    float(cycles).hex()
                    for cycles in scheduler.schedule_program(program)
                ]
            yield f"{name}@{scale:g}", fields


def render(snapshot: Dict[str, Dict[str, object]]) -> str:
    """The snapshot file's text: one case per line."""
    lines = [f"  {json.dumps(name)}: {json.dumps(fields, sort_keys=True)}"
             for name, fields in snapshot.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def test_programs_reproduce_snapshot(snapshot):
    built = dict(cases())
    assert list(built) == list(snapshot)
    mismatched = [name for name in built if built[name] != snapshot[name]]
    assert not mismatched, (
        f"{len(mismatched)} programs differ from the snapshot, first "
        f"{mismatched[0]}"
    )


if __name__ == "__main__":
    print(render(dict(cases())), end="")
