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

The walk is array-native: everything static about a segment depends only
on its *kind* (block sequence, and whether it is a loop body), so the
simulator builds one statics record per kind when it is constructed and
walks plain ``(segment, rep offset, reps)`` ints — no
:class:`~repro.engine.trace.Segment` view is ever materialised.

**One loop.**  :meth:`TimingSimulator.simulate_range` is the whole walk:
one ``while`` that cuts pieces as :meth:`Trace.piece_bounds` does and
simulates each in the same frame.  Its counters are locals that start
from the passed result, take each piece's additions in walk order and are
written back once, so every float is what per-piece updates would give.
``min``/``max`` are conditionals, which cost no call: ``b if b < a else
a`` returns the operand ``min(a, b)`` returns, ties included.

A piece does only the work that can change machine state or a counter;
both shortcuts below book bit-identical results:

* **Eviction-free L1I.**  When no L1I set holds more of the program's
  code lines than it has ways (checked once per trace and config), no
  line is ever evicted, so a block fetched once on a state hits on every
  line until the state is reset.  Such blocks skip the cache and only
  count their accesses; LRU order inside a set that never evicts decides
  nothing.  Programs whose code conflicts keep the real set-associative
  cache on every fetch, the only exact model for them.
* **Whole-segment visits.**  A piece that covers its segment from rep 0
  to the end runs each memory block's visit in one batch.  With no visit
  open on the state, it takes the visit's rates and installs its
  residency in one call and keeps no visit state.  An open visit means a
  carried state re-enters a segment an earlier range cut; that piece
  takes the keyed path and reuses the open visit's rates.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..config import MachineConfig
from ..engine.trace import Trace
from ..errors import TraceError
from ..isa.opcodes import Opcode
from ..obs import (
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    DETAILED_PIECES,
    MetricsRegistry,
)
from ..uarch.branch import (
    COUNTER_MAX,
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


def _loop_branch_table() -> Dict[Tuple[int, int, bool], Tuple[int, float]]:
    """``(counter, min(takens, 3), ends) -> (counter, mispredicts)`` of a
    loop back-edge piece: *takens* taken outcomes, then the exit if the
    piece *ends* its segment.  Three takens saturate the 2-bit counter."""
    table = {}
    for counter, takens in product(range(COUNTER_MAX + 1), range(4)):
        state, missed = advance_loop_branch(counter, takens)
        table[counter, takens, False] = (state, float(missed))
        state, exit_missed = exit_loop_branch(state)
        table[counter, takens, True] = (state, float(missed) + exit_missed)
    return table


#: The loop back-edge counter: one lookup per piece.
LOOP_BRANCH = _loop_branch_table()


class _BlockMemory(NamedTuple):
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


class _KindStatics(NamedTuple):
    """Per-kind constants hoisted out of the piece-simulation loop.

    A segment's *kind* is its block sequence plus whether it is a loop
    body (``loop_id >= 0``): everything here depends on nothing else, so
    the simulator builds one record per kind up front — a trace has tens
    of kinds against tens of thousands of segments — and the walk looks
    it up by the segment's kind index.

    Everything that does not depend on machine state is reduced to batch
    quantities: instructions and steady-state cycles per rep, and the
    aggregate expected-mispredict rate of the kind's data-dependent
    branches (stationary rates touch no predictor state, so their per-rep
    sum folds into one multiply per piece).  Only the state-carrying
    accesses — instruction fetch, data hierarchy, the loop back-edge
    counter — remain in the per-block loop, in the exact order the
    scalar loop used, so machine-state evolution is unchanged.
    """

    rep_insts: int
    rep_cycles: float
    #: Fetch lines and memory instructions per rep, over all blocks.
    rep_fetch_lines: int
    rep_mem_insts: int
    #: Per block, in execution order: (block_id, fetch lines, memory or None).
    blocks: Tuple[Tuple[int, Tuple[int, ...], Optional[_BlockMemory]], ...]
    #: No memory block occurs twice, so each has a visit of its own.
    distinct_visits: bool
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
        #: Blocks fetched since the last reset, kept only when the L1I
        #: can never evict (every later fetch of them hits).
        self.fetched: Set[int] = set()

    def reset(self) -> None:
        """Return to the cold-machine state."""
        self.il1.reset()
        self.data.reset()
        self.loop_counters.clear()
        self.fetched.clear()


class TimingSimulator:
    """Detailed timing simulation of (ranges of) one trace.

    Construction reduces the trace to per-kind statics (see
    :class:`_KindStatics`) plus each segment's kind index and rep count,
    so a range walk touches only ints, lists and those records.
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
        self._inst_lines: List[Tuple[int, ...]] = []
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
                    if inst.opcode is Opcode.LOAD
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
            lines = tuple(block.instruction_lines(iline))
            code_lines.update(lines)
            self._inst_lines.append(lines)
            self._ends_in_branch.append(block.ends_in_branch)
            self._data_branch_rate.append(
                stationary_mispredict_rate(block.branch_bias)
                if block.ends_in_branch
                else 0.0
            )
        self._code_lines = len(code_lines)
        # A set that never holds more of the program's code lines than it
        # has ways never evicts, so a block fetched once stays resident
        # until the state is reset.
        n_sets = config.icache.n_sets
        per_set = Counter(line % n_sets for line in code_lines)
        self.l1i_eviction_free = (
            max(per_set.values(), default=0) <= config.icache.assoc
        )

        # One statics record per kind, numbered by first appearance.  A
        # single-block kind is the code block * 2 + is_loop; multi-block
        # ones get negative codes.  Shifted by their count, the codes index
        # a dense table of first segment indices.
        flat, offsets = trace.flat_blocks.tolist(), trace.flat_offsets
        is_loop = trace.loop_id >= 0
        codes = trace.flat_blocks[offsets[:-1]] * 2 + is_loop
        multi: Dict[Tuple[Tuple[int, ...], bool], int] = {}
        many = np.flatnonzero(trace.blocks_per_segment > 1)
        for i, lo, hi, loop in zip(many.tolist(), offsets[many].tolist(),
                                   offsets[many + 1].tolist(),
                                   is_loop[many].tolist()):
            key = (tuple(flat[lo:hi]), loop)
            codes[i] = -1 - multi.setdefault(key, len(multi))
        codes += len(multi)
        n_segments = len(codes)
        first = np.full(len(multi) + 2 * len(program.blocks), n_segments)
        np.minimum.at(first, codes, np.arange(n_segments))
        present = np.flatnonzero(first < n_segments)
        order = present[np.argsort(first[present])]
        number = np.empty(len(first), dtype=np.int64)
        number[order] = np.arange(len(order))
        self._segment_kind: List[int] = number[codes].tolist()
        self._kind_statics: List[_KindStatics] = [
            self._build_statics(tuple(flat[offsets[i]:offsets[i + 1]]),
                                bool(is_loop[i]), int(trace.rep_lengths[i]))
            for i in first[order].tolist()
        ]

    def _build_statics(
        self, blocks: Tuple[int, ...], is_loop: bool, rep_insts: int
    ) -> _KindStatics:
        """The statics of one kind: *blocks* run as a loop body or not."""
        last_index = len(blocks) - 1
        plain_branches = 0
        plain_rate_sum = 0.0
        loop_branch_block = -1
        rep_cycles = 0.0
        rep_fetch_lines = 0
        rep_mem_insts = 0
        entries = []
        for position, block_id in enumerate(blocks):
            rep_cycles += self.base_cycles[block_id]
            memory = self._block_memory[block_id]
            rep_fetch_lines += len(self._inst_lines[block_id])
            if memory is not None:
                rep_mem_insts += memory.n_mem
            entries.append((block_id, self._inst_lines[block_id], memory))
            if not self._ends_in_branch[block_id]:
                continue
            if is_loop and position == last_index:
                loop_branch_block = block_id
            else:
                plain_branches += 1
                plain_rate_sum += self._data_branch_rate[block_id]
        memory_blocks = [b for b, _, memory in entries if memory is not None]
        return _KindStatics(
            rep_insts=rep_insts,
            rep_cycles=rep_cycles,
            rep_fetch_lines=rep_fetch_lines,
            rep_mem_insts=rep_mem_insts,
            blocks=tuple(entries),
            distinct_visits=len(set(memory_blocks)) == len(memory_blocks),
            plain_branches=plain_branches,
            plain_rate_sum=plain_rate_sum,
            loop_branch_block=loop_branch_block,
        )

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
        trace = self.trace
        if start < 0 or end > trace.total_instructions or start >= end:
            raise TraceError(f"bad clip range [{start}, {end})")
        start, end = int(start), int(end)
        seg_starts, rep_lengths, seg_reps = trace._piece_columns
        kind_statics, segment_kind = self._kind_statics, self._segment_kind
        l1d_penalty, l2_penalty = self.l1d_penalty, self.l2_penalty
        branch_penalty, mlp = self.branch_penalty, self.mlp
        data, il1, fetched = state.data, state.il1, state.fetched
        visits, loop_counters = data.visits, state.loop_counters
        # The counters, written back to *result* once after the loop.
        (instructions, total_cycles, l1d_accesses, l1d_misses, l1i_accesses,
         l1i_misses, l2_accesses, l2_misses, branches, mispredicts) = (
            result.instructions, result.cycles, result.l1d_accesses,
            result.l1d_misses, result.l1i_accesses, result.l1i_misses,
            result.l2_accesses, result.l2_misses, result.branches,
            result.mispredicts)
        before = instructions

        index = first_index = bisect_right(seg_starts, start) - 1
        seg_start = seg_starts[index]
        while seg_start < end:
            # The piece, as Trace.piece_bounds cuts it: whole reps rounded
            # outward, at least one rep and at most the segment's.
            seg_end = seg_starts[index + 1]
            rep_len, reps = rep_lengths[index], seg_reps[index]
            rep_offset = ((start - seg_start) // rep_len
                          if start > seg_start else 0)
            last_rep = ((end if end < seg_end else seg_end) - seg_start
                        + rep_len - 1) // rep_len
            if last_rep <= rep_offset:
                last_rep = rep_offset + 1
            if last_rep > reps:
                last_rep = reps
            n = last_rep - rep_offset
            includes_end = last_rep == reps
            (rep_insts, rep_cycles, rep_fetch_lines, rep_mem_insts, blocks,
             distinct_visits, plain_branches, plain_rate_sum,
             loop_branch_block) = kind_statics[segment_kind[index]]
            # A whole-segment piece keeps no visit state, unless a visit is
            # open (an earlier range on this state cut its segment) or a
            # block recurs in the segment (reusing its first batch's rates).
            whole = (rep_offset == 0 and includes_end and distinct_visits
                     and not visits)

            # Batched stateless quantities: instruction and access counts,
            # steady-state cycles, data-dependent branch mispredicts.
            instructions += rep_insts * n
            l1i_accesses += rep_fetch_lines * n
            l1d_accesses += rep_mem_insts * n
            cycles = rep_cycles * n
            if plain_branches:
                expected = n * plain_rate_sum
                branches += plain_branches * n
                mispredicts += expected
                cycles += expected * branch_penalty

            # State-carrying accesses stay in block order: instruction
            # fetch and data touches of one block interleave exactly as the
            # scalar loop interleaved them (they share the L2 occupancy
            # ledger, whose recency ordering is order-sensitive).
            for block_id, ilines, memory in blocks:
                # Instruction fetch: each line goes through the real L1I
                # once per piece; the other n-1 rounds hit by construction.
                # A block already fetched into an L1I that never evicts
                # hits on every line.
                if block_id not in fetched:
                    block_misses, miss_lines = il1.access_run(ilines)
                    if self.l1i_eviction_free:
                        fetched.add(block_id)
                    if block_misses:
                        l1i_misses += block_misses
                        l2i_misses = data.access_code(
                            state.code_lines, float(len(miss_lines))
                        )
                        l2_accesses += block_misses
                        l2_misses += l2i_misses
                        cycles += (block_misses * self.l1i_penalty
                                   + l2i_misses * l2_penalty)

                # Data: touches scale linearly in n and the visit is keyed by
                # (segment index, block), so any rep-aligned split of a
                # segment books exactly what the whole segment does.
                if memory is not None:
                    region, ws_lines, _, per_rep, load_fraction = memory
                    touches = per_rep * n
                    visit_touches = (per_rep * reps
                                     if per_rep * reps > 1.0 else 1.0)
                    if whole:
                        # What access_data books for a visit's only batch.
                        l1_hit, l2_hit = data.enter_visit(
                            region, ws_lines, visit_touches
                        )
                        l1m = touches * (1.0 - l1_hit)
                        l2m = l1m * (1.0 - l2_hit)
                    else:
                        l1m, l2m = data.access_data(
                            region, ws_lines, (index, block_id),
                            visit_touches, touches,
                        )
                    l1d_misses += l1m
                    l2_accesses += l1m
                    l2_misses += l2m
                    cycles += ((l1m * l1d_penalty + l2m * l2_penalty)
                               * load_fraction / mlp)

            # The loop back-edge's 2-bit counter is private state: running
            # it after the cache accesses cannot change a cache outcome.
            if loop_branch_block >= 0:
                takens = n - 1 if includes_end else n
                counter, missed = LOOP_BRANCH[
                    loop_counters.get(loop_branch_block, 1),
                    takens if takens < 3 else 3, includes_end,
                ]
                loop_counters[loop_branch_block] = counter
                branches += n
                mispredicts += missed
                cycles += missed * branch_penalty

            total_cycles += cycles
            # The segment's visits are over; dropping them keeps the visit
            # table at one segment's blocks instead of the whole trace's.
            if includes_end and not whole:
                for block_id, _, memory in blocks:
                    if memory is not None:
                        data.end_visit((index, block_id))
            index += 1
            seg_start = seg_end

        (result.instructions, result.cycles, result.l1d_accesses,
         result.l1d_misses, result.l1i_accesses, result.l1i_misses,
         result.l2_accesses, result.l2_misses, result.branches,
         result.mispredicts) = (instructions, total_cycles, l1d_accesses,
                                l1d_misses, l1i_accesses, l1i_misses,
                                l2_accesses, l2_misses, branches, mispredicts)
        # Coarse accounting only: simulate_full delegates here, so every
        # detail-simulated instruction is counted exactly once, outside
        # the hot loop.
        self.metrics.counter(DETAILED_CALLS).inc()
        self.metrics.counter(DETAILED_PIECES).inc(index - first_index)
        self.metrics.counter(DETAILED_INSTRUCTIONS).inc(
            float(instructions - before)
        )
        return result
