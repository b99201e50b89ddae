"""Turn a :class:`~repro.workloads.spec.BenchmarkSpec` into a program.

The generated layout is what the trace builder unrolls:

* a short straight-line prologue plus a tiny *init loop* — a real top-level
  cyclic structure whose dynamic coverage is far below the paper's 1%
  floor, exercising COASTS' boundary-collection filter;
* one *outer loop* (the main top-level cyclic structure) whose header runs
  once per outer iteration;
* per regime, per inner loop: a header block plus ``body_blocks`` body
  blocks bound to the loop's own memory region, stride and branch bias;
* a handful of shared *noise* blocks sprinkled between inner-loop visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..isa.builder import InstructionMix, ProgramBuilder
from ..isa.program import Program
from .spec import (
    HEADER_BLOCK_SIZE,
    N_NOISE_BLOCKS,
    NOISE_BLOCK_SIZE,
    BenchmarkSpec,
    InnerLoopSpec,
    RegimeSpec,
)

#: Instruction mix used for glue (header / prologue) blocks: pure control.
_GLUE_MIX = InstructionMix(load=0.0, store=0.0, fp=0.0, mul_div=0.0)

#: Mix of the data-initialisation scan blocks (store-heavy).
_INIT_MIX = InstructionMix(load=0.10, store=0.40, fp=0.0, mul_div=0.0)


def _mem_instructions_per_block(loop_spec: InnerLoopSpec) -> int:
    """Memory instructions the builder will emit per body block."""
    return loop_spec.mem_instructions_per_block


@dataclass(frozen=True)
class InnerLayout:
    """Static placement of one inner loop."""

    spec: InnerLoopSpec
    header_block: int
    body_blocks: Tuple[int, ...]
    loop_id: int
    region_id: int


@dataclass(frozen=True)
class RegimeLayout:
    """Static placement of one regime."""

    spec: RegimeSpec
    loops: Tuple[InnerLayout, ...]


@dataclass(frozen=True)
class Workload:
    """A spec together with its generated program and placements."""

    spec: BenchmarkSpec
    program: Program
    regime_layouts: Tuple[RegimeLayout, ...]
    outer_header: int
    outer_loop_id: int
    prologue_blocks: Tuple[int, ...]
    init_loop_header: int
    init_loop_body: int
    init_loop_id: int
    noise_blocks: Tuple[int, ...]
    #: (block_id, reps) pairs that initialise every data region once in the
    #: prologue, as real programs do before their main loops.
    init_scans: Tuple[Tuple[int, int], ...] = ()

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.spec.name


def generate_workload(spec: BenchmarkSpec) -> Workload:
    """Generate the static program and layout for *spec*."""
    builder = ProgramBuilder(spec.name, seed=spec.seed)

    # --- prologue ----------------------------------------------------
    init_region = builder.add_region("init", 4096)
    prologue: List[int] = [
        builder.add_block(
            "init.setup0", 16, mix=InstructionMix(load=0.1, store=0.2),
            region=init_region, stride=8, terminator="jump",
        ),
        builder.add_block(
            "init.setup1", 14, mix=_GLUE_MIX, terminator="jump",
        ),
    ]
    init_header = builder.add_block(
        "init.loop.header", HEADER_BLOCK_SIZE, mix=_GLUE_MIX, terminator="jump"
    )
    init_body = builder.add_block(
        "init.loop.body", 30, mix=InstructionMix(load=0.25, store=0.1),
        region=init_region, stride=8, branch_bias=0.95, terminator="branch",
    )
    init_loop_id = builder.add_loop(init_header, [init_header, init_body])

    # --- outer loop header -------------------------------------------
    outer_header = builder.add_block(
        "outer.header", HEADER_BLOCK_SIZE, mix=_GLUE_MIX, terminator="jump"
    )
    outer_blocks: List[int] = [outer_header]

    # --- noise blocks -------------------------------------------------
    noise_region = builder.add_region("noise", 8 * 1024)
    noise_blocks: List[int] = []
    for i in range(N_NOISE_BLOCKS):
        noise_blocks.append(
            builder.add_block(
                f"noise.b{i}", NOISE_BLOCK_SIZE,
                mix=InstructionMix(load=0.2, store=0.05),
                region=noise_region, stride=16, branch_bias=0.7,
                terminator="branch",
            )
        )
    outer_blocks.extend(noise_blocks)

    # --- data regions (shared regions resolved benchmark-wide) ----------
    # Loops naming the same `region` operate on the same data, sized to the
    # largest declared working set; each region gets a one-time store sweep
    # in the prologue (programs initialise their arrays before the main
    # loops, so first iteration instances are not artificially all-cold).
    region_sizes: Dict[str, int] = {}
    for regime in spec.regimes:
        for loop_spec in regime.loops:
            key = loop_spec.region or f"{regime.name}.{loop_spec.name}"
            region_sizes[key] = max(
                region_sizes.get(key, 0), loop_spec.working_set
            )
    region_ids: Dict[str, int] = {}
    init_scans: List[Tuple[int, int]] = []
    for key, size in region_sizes.items():
        shared_region = builder.add_region(f"{key}.data", size)
        region_ids[key] = shared_region
        scan_block = builder.add_block(
            f"init.scan.{key}", 16, mix=_INIT_MIX, region=shared_region,
            stride=32, offset_step=max(8, size // 8),
            branch_bias=0.98, terminator="branch",
        )
        init_scans.append((scan_block, max(1, size // (8 * 32))))

    # --- regimes -------------------------------------------------------
    regime_layouts: List[RegimeLayout] = []
    outer_loop_members: List[int] = list(outer_blocks)
    pending_loops: List[Tuple[InnerLayout, List[int]]] = []
    for regime in spec.regimes:
        inner_layouts: List[InnerLayout] = []
        for loop_spec in regime.loops:
            key = loop_spec.region or f"{regime.name}.{loop_spec.name}"
            region_id = region_ids[key]
            header = builder.add_block(
                f"{regime.name}.{loop_spec.name}.header",
                HEADER_BLOCK_SIZE, mix=_GLUE_MIX, terminator="jump",
            )
            body: List[int] = []
            mem_per_block = _mem_instructions_per_block(loop_spec)
            # Memory instructions partition the region: instruction i starts
            # at offset i * ws/k and walks forward by `stride` per iteration,
            # so one visit's footprint is ~ k * iterations * stride bytes,
            # re-swept identically on every visit (temporal locality).
            offset_step = max(
                8, loop_spec.working_set // max(1, mem_per_block)
            )
            for b in range(loop_spec.body_blocks):
                body.append(
                    builder.add_block(
                        f"{regime.name}.{loop_spec.name}.b{b}",
                        loop_spec.block_size,
                        mix=loop_spec.mix,
                        region=region_id,
                        stride=loop_spec.stride,
                        offset_step=offset_step,
                        branch_bias=loop_spec.branch_bias,
                        terminator="branch",
                    )
                )
            members = [header] + body
            layout = InnerLayout(
                spec=loop_spec,
                header_block=header,
                body_blocks=tuple(body),
                loop_id=-1,  # patched below once the outer loop exists
                region_id=region_id,
            )
            pending_loops.append((layout, members))
            inner_layouts.append(layout)
            outer_loop_members.extend(members)
        regime_layouts.append(RegimeLayout(spec=regime, loops=tuple(inner_layouts)))

    outer_loop_id = builder.add_loop(outer_header, outer_loop_members)

    # Register inner loops as children of the outer loop and patch loop ids.
    patched_regimes: List[RegimeLayout] = []
    pending_index = 0
    for regime_layout in regime_layouts:
        patched_inner: List[InnerLayout] = []
        for inner in regime_layout.loops:
            layout, members = pending_loops[pending_index]
            pending_index += 1
            loop_id = builder.add_loop(
                layout.header_block, members, parent=outer_loop_id
            )
            patched_inner.append(
                InnerLayout(
                    spec=layout.spec,
                    header_block=layout.header_block,
                    body_blocks=layout.body_blocks,
                    loop_id=loop_id,
                    region_id=layout.region_id,
                )
            )
        patched_regimes.append(
            RegimeLayout(spec=regime_layout.spec, loops=tuple(patched_inner))
        )

    _add_edges(builder, prologue, init_header, init_body, outer_header,
               patched_regimes, noise_blocks)

    program = builder.build(entry=prologue[0])
    return Workload(
        spec=spec,
        program=program,
        regime_layouts=tuple(patched_regimes),
        outer_header=outer_header,
        outer_loop_id=outer_loop_id,
        prologue_blocks=tuple(prologue),
        init_loop_header=init_header,
        init_loop_body=init_body,
        init_loop_id=init_loop_id,
        noise_blocks=tuple(noise_blocks),
        init_scans=tuple(init_scans),
    )


def _add_edges(
    builder: ProgramBuilder,
    prologue: List[int],
    init_header: int,
    init_body: int,
    outer_header: int,
    regimes: List[RegimeLayout],
    noise_blocks: List[int],
) -> None:
    """Record a plausible CFG over the generated blocks."""
    builder.add_edge(prologue[0], prologue[1])
    builder.add_edge(prologue[1], init_header)
    builder.add_edge(init_header, init_body)
    builder.add_edge(init_body, init_header)
    builder.add_edge(init_body, outer_header)
    for regime_layout in regimes:
        for inner in regime_layout.loops:
            builder.add_edge(outer_header, inner.header_block)
            chain = [inner.header_block, *inner.body_blocks]
            for src, dst in zip(chain, chain[1:]):
                builder.add_edge(src, dst)
            builder.add_edge(inner.body_blocks[-1], inner.header_block)
            builder.add_edge(inner.body_blocks[-1], outer_header)
            for noise in noise_blocks:
                builder.add_edge(inner.body_blocks[-1], noise)
    for noise in noise_blocks:
        builder.add_edge(noise, outer_header)
