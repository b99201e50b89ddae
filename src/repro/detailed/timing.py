"""Block-level out-of-order timing simulator (the experiments' sim-outorder).

The engine walks the run-length trace and charges, per block execution:

* the block's steady-state cycles from the static list scheduler
  (issue-width, functional-unit and ROB-derated critical-path bounds);
* data-cache penalties from the analytic LRU occupancy hierarchy
  (:mod:`repro.uarch.occupancy`): per memory instruction, a run of ``n``
  strided accesses collapses to ``n * stride / line`` distinct-line touches
  (the within-line remainder hits by construction), which hit in each level
  with probability given by the region's current residency;
* instruction-cache behaviour from a real set-associative L1I, with misses
  routed into the shared L2 occupancy as code-region traffic;
* branch penalties: exact 2-bit-counter dynamics for loop back-edges, and
  the exact Markov stationary mispredict rate for data-dependent branches.

Load miss penalties are de-rated by a memory-level-parallelism factor
derived from the LSQ depth.  All quantities are deterministic; fractional
expected counts (occupancy hits, statistical mispredicts) accumulate as
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import MachineConfig
from ..engine.trace import SegmentPiece, Trace
from ..obs import DETAILED_CALLS, DETAILED_INSTRUCTIONS, MetricsRegistry
from ..uarch.branch import (
    advance_loop_branch,
    exit_loop_branch,
    stationary_mispredict_rate,
)
from ..uarch.cache import Cache
from ..uarch.occupancy import DataHierarchyModel
from ..uarch.scheduler import BlockScheduler, effective_mlp
from .results import SimulationResult

#: Extra overlap factor for L1-miss/L2-hit latency: the OoO window hides
#: most of a short L2 access beyond what memory-level parallelism covers.
L1_MISS_OVERLAP = 3.0


@dataclass
class _BlockMemory:
    """Aggregate memory behaviour of one block's memory instructions.

    A block's memory instructions partition its region into chunks and
    jointly sweep it, so they are modelled as one batch per block execution
    run: ``touches_per_rep`` distinct-line touches per iteration in total
    (the within-line remainder of the accesses hits by construction), of
    which ``load_fraction`` stall the pipeline on a miss.
    """

    region: int
    ws_lines: float
    n_mem: int
    touches_per_rep: float
    load_fraction: float


@dataclass
class _SegmentStatics:
    """Per-segment constants hoisted out of the piece-simulation loop.

    Everything that does not depend on machine state is reduced to batch
    quantities once per segment: instructions and steady-state cycles per
    rep, and the aggregate expected-mispredict rate of the segment's
    data-dependent branches (stationary rates touch no predictor state, so
    their per-rep sum folds into one multiply per piece).  Only the
    state-carrying accesses — instruction fetch, data hierarchy, the loop
    back-edge counter — remain in the per-block loop, in the exact order
    the scalar loop used, so machine-state evolution is unchanged.
    """

    rep_insts: int
    rep_cycles: float
    #: Per block, in execution order: (block_id, inst_lines, memory or None).
    blocks: Tuple[Tuple[int, np.ndarray, Optional[_BlockMemory]], ...]
    #: Data-dependent (non-loop) branches per rep and their rate sum.
    plain_branches: int
    plain_rate_sum: float
    #: Block id of the loop back-edge branch, or -1.
    loop_branch_block: int


class MachineState:
    """Mutable microarchitectural state carried across simulated ranges."""

    def __init__(self, config: MachineConfig, code_lines: int) -> None:
        self.il1 = Cache(config.icache)
        self.data = DataHierarchyModel(config.dcache, config.l2cache)
        self.code_lines = float(max(1, code_lines))
        #: 2-bit counter per loop back-edge branch, keyed by block id.
        self.loop_counters: Dict[int, int] = {}

    def reset(self) -> None:
        """Return to the cold-machine state."""
        self.il1.reset()
        self.data.reset()
        self.loop_counters.clear()


class TimingSimulator:
    """Detailed timing simulation of (ranges of) one trace.

    *metrics* hooks the simulator into an observability registry at
    coarse granularity — one bump per :meth:`simulate_range` call, never
    inside the per-piece loop.  A private registry is used when none is
    supplied.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        program = trace.program
        self.program = program

        scheduler = BlockScheduler(config)
        self.base_cycles = scheduler.schedule_program(program)
        self.mlp = effective_mlp(config)
        # L1 misses that hit the L2 are short enough for the OoO window to
        # overlap most of the latency on top of the MLP overlap; misses to
        # memory are too long to hide and only benefit from MLP.
        self.l1d_penalty = max(
            0, config.l2cache.latency - config.dcache.latency
        ) / L1_MISS_OVERLAP
        self.l2_penalty = config.mem_latency_first
        self.l1i_penalty = config.l2cache.latency
        self.branch_penalty = config.branch.mispredict_penalty

        line = config.dcache.line_size
        iline = config.icache.line_size
        self._block_memory: List[Optional[_BlockMemory]] = []
        self._inst_lines: List[np.ndarray] = []
        self._data_branch_rate: List[float] = []
        self._ends_in_branch: List[bool] = []
        code_lines = set()
        for block in program.blocks:
            mem_insts = block.memory_instructions
            if mem_insts:
                region = program.region(mem_insts[0].mem_region)
                touches = [
                    min(1.0, inst.mem_stride / line) for inst in mem_insts
                ]
                load_touches = sum(
                    t for t, inst in zip(touches, mem_insts)
                    if inst.opcode.value == "load"
                )
                total = sum(touches)
                self._block_memory.append(
                    _BlockMemory(
                        region=mem_insts[0].mem_region,
                        ws_lines=max(1.0, region.size / line),
                        n_mem=len(mem_insts),
                        touches_per_rep=total,
                        load_fraction=load_touches / total if total else 0.0,
                    )
                )
            else:
                self._block_memory.append(None)
            lines = np.array(list(block.instruction_lines(iline)), dtype=np.int64)
            code_lines.update(int(l) for l in lines)
            self._inst_lines.append(lines)
            self._ends_in_branch.append(block.ends_in_branch)
            self._data_branch_rate.append(
                stationary_mispredict_rate(block.branch_bias)
                if block.ends_in_branch
                else 0.0
            )
        self._code_lines = len(code_lines)
        self._seg_statics: List[Optional[_SegmentStatics]] = \
            [None] * trace.n_segments

    def _statics_of(self, seg_index: int) -> _SegmentStatics:
        """The (lazily built, memoised) statics of segment *seg_index*."""
        statics = self._seg_statics[seg_index]
        if statics is None:
            seg = self.trace.segment_at(seg_index)
            last_index = len(seg.blocks) - 1
            plain_branches = 0
            plain_rate_sum = 0.0
            loop_branch_block = -1
            rep_cycles = 0.0
            blocks = []
            for position, block_id in enumerate(seg.blocks):
                rep_cycles += self.base_cycles[block_id]
                blocks.append((
                    block_id,
                    self._inst_lines[block_id],
                    self._block_memory[block_id],
                ))
                if not self._ends_in_branch[block_id]:
                    continue
                if seg.loop_id >= 0 and position == last_index:
                    loop_branch_block = block_id
                else:
                    plain_branches += 1
                    plain_rate_sum += self._data_branch_rate[block_id]
            statics = _SegmentStatics(
                rep_insts=int(self.trace.rep_lengths[seg_index]),
                rep_cycles=rep_cycles,
                blocks=tuple(blocks),
                plain_branches=plain_branches,
                plain_rate_sum=plain_rate_sum,
                loop_branch_block=loop_branch_block,
            )
            self._seg_statics[seg_index] = statics
        return statics

    # ------------------------------------------------------------------
    def new_state(self) -> MachineState:
        """A fresh (cold) machine state."""
        return MachineState(self.config, self._code_lines)

    def simulate_full(self) -> SimulationResult:
        """Simulate the whole trace from cold state (the baseline run)."""
        return self.simulate_range(0, self.trace.total_instructions)

    def simulate_range(
        self,
        start: int,
        end: int,
        state: Optional[MachineState] = None,
        result: Optional[SimulationResult] = None,
    ) -> SimulationResult:
        """Simulate instructions [start, end), rounded out to rep boundaries.

        *state* carries cache/predictor contents across calls; *result*
        accumulates counters (pass a throwaway result to warm state without
        keeping the numbers).
        """
        if state is None:
            state = self.new_state()
        if result is None:
            result = SimulationResult()
        before = result.instructions
        for piece in self.trace.clip(start, end):
            self._simulate_piece(piece, state, result)
        # Coarse accounting only: simulate_full delegates here, so every
        # detail-simulated instruction is counted exactly once, outside
        # the hot loop.
        self.metrics.counter(DETAILED_CALLS).inc()
        self.metrics.counter(DETAILED_INSTRUCTIONS).inc(
            float(result.instructions - before)
        )
        return result

    # ------------------------------------------------------------------
    def _simulate_piece(
        self,
        piece: SegmentPiece,
        state: MachineState,
        result: SimulationResult,
    ) -> None:
        seg = piece.segment
        n = piece.n_reps
        seg_index = piece.seg_index
        statics = self._statics_of(seg_index)
        includes_end = piece.rep_offset + n == seg.reps
        data = state.data
        il1 = state.il1

        # Batched stateless quantities: instruction count, steady-state
        # cycles, expected mispredicts of data-dependent branches.
        result.instructions += statics.rep_insts * n
        cycles = statics.rep_cycles * n
        if statics.plain_branches:
            expected = n * statics.plain_rate_sum
            result.branches += statics.plain_branches * n
            result.mispredicts += expected
            cycles += expected * self.branch_penalty

        # State-carrying accesses stay in block order: instruction fetch
        # and data touches of one block interleave exactly as the scalar
        # loop interleaved them (they share the L2 occupancy ledger, whose
        # recency ordering is order-sensitive).
        for block_id, ilines, memory in statics.blocks:
            # --- instruction fetch ----------------------------------------
            # Each fetch line is touched through the real L1I once per
            # piece; the remaining n-1 rounds re-fetch the same lines
            # back-to-back and hit by construction.
            l1i_misses, miss_lines = il1.access_run(ilines)
            result.l1i_accesses += len(ilines) * n
            result.l1i_misses += l1i_misses
            if l1i_misses:
                l2i_misses = data.access_code(state.code_lines,
                                              float(len(miss_lines)))
                result.l2_accesses += l1i_misses
                result.l2_misses += l2i_misses
                cycles += (
                    l1i_misses * self.l1i_penalty + l2i_misses * self.l2_penalty
                )

            # --- data accesses ----------------------------------------------
            # Touches scale linearly in n and the visit is keyed by
            # (segment index, block), so any rep-aligned split of a
            # segment books exactly what the whole segment does.
            if memory is not None:
                touches = memory.touches_per_rep * n
                visit_touches = max(1.0, memory.touches_per_rep * seg.reps)
                l1m, l2m = data.access_data(
                    memory.region, memory.ws_lines, (seg_index, block_id),
                    visit_touches, touches,
                )
                result.l1d_accesses += memory.n_mem * n
                result.l1d_misses += l1m
                result.l2_accesses += l1m
                result.l2_misses += l2m
                cycles += (
                    (l1m * self.l1d_penalty + l2m * self.l2_penalty)
                    * memory.load_fraction / self.mlp
                )

        # --- loop back-edge branch ---------------------------------------
        # The 2-bit counter is private per-branch state: running it after
        # the cache accesses cannot change any cache outcome.
        if statics.loop_branch_block >= 0:
            block_id = statics.loop_branch_block
            counter = state.loop_counters.get(block_id, 1)
            takens = n - 1 if includes_end else n
            counter, mis = advance_loop_branch(counter, takens)
            mispredicts = float(mis)
            if includes_end:
                counter, exit_mis = exit_loop_branch(counter)
                mispredicts += exit_mis
            state.loop_counters[block_id] = counter
            result.branches += n
            result.mispredicts += mispredicts
            cycles += mispredicts * self.branch_penalty

        result.cycles += cycles
        # The segment's visits are over; dropping them keeps the visit
        # table at one segment's blocks instead of the whole trace's.
        if includes_end:
            for block_id, _, memory in statics.blocks:
                if memory is not None:
                    data.end_visit((seg_index, block_id))
