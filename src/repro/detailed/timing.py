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
walks plain ``(segment, rep offset, reps)`` ints from
:meth:`Trace.piece_bounds` — no :class:`~repro.engine.trace.Segment` view
is ever materialised.

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

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import MachineConfig
from ..engine.trace import Trace
from ..isa.opcodes import Opcode
from ..obs import (
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    DETAILED_PIECES,
    MetricsRegistry,
)
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
class _KindStatics:
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

        # One statics record per kind, and each segment's kind index.
        flat = trace.flat_blocks.tolist()
        offsets = trace.flat_offsets.tolist()
        rep_lengths = trace.rep_lengths.tolist()
        kind_of: Dict[Tuple[Tuple[int, ...], bool], int] = {}
        self._kind_statics: List[_KindStatics] = []
        self._segment_kind: List[int] = []
        for index, is_loop in enumerate((trace.loop_id >= 0).tolist()):
            key = (tuple(flat[offsets[index]:offsets[index + 1]]), is_loop)
            kind = kind_of.get(key)
            if kind is None:
                kind = kind_of[key] = len(self._kind_statics)
                self._kind_statics.append(
                    self._build_statics(key[0], is_loop, rep_lengths[index])
                )
            self._segment_kind.append(kind)
        self._segment_reps: List[int] = trace.reps.tolist()

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
        before = result.instructions
        pieces = 0
        for seg_index, rep_offset, n in self.trace.piece_bounds(start, end):
            self._simulate_piece(seg_index, rep_offset, n, state, result)
            pieces += 1
        # Coarse accounting only: simulate_full delegates here, so every
        # detail-simulated instruction is counted exactly once, outside
        # the hot loop.
        self.metrics.counter(DETAILED_CALLS).inc()
        self.metrics.counter(DETAILED_PIECES).inc(pieces)
        self.metrics.counter(DETAILED_INSTRUCTIONS).inc(
            float(result.instructions - before)
        )
        return result

    # ------------------------------------------------------------------
    def _simulate_piece(
        self,
        seg_index: int,
        rep_offset: int,
        n: int,
        state: MachineState,
        result: SimulationResult,
    ) -> None:
        """Simulate *n* reps of segment *seg_index* from rep *rep_offset*."""
        statics = self._kind_statics[self._segment_kind[seg_index]]
        seg_reps = self._segment_reps[seg_index]
        includes_end = rep_offset + n == seg_reps
        data = state.data
        il1 = state.il1
        fetched = state.fetched
        # A whole-segment piece keeps no visit state, unless a visit is
        # open (its segment was cut by an earlier range on this state) or
        # a block recurs in the segment (its second batch reuses the
        # first's rates).
        whole = (rep_offset == 0 and includes_end and statics.distinct_visits
                 and not data.visits)

        # Batched stateless quantities: instruction and access counts,
        # steady-state cycles, expected mispredicts of data-dependent
        # branches.
        result.instructions += statics.rep_insts * n
        result.l1i_accesses += statics.rep_fetch_lines * n
        result.l1d_accesses += statics.rep_mem_insts * n
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
            # back-to-back and hit by construction.  A block already
            # fetched into an L1I that never evicts hits on every line.
            if block_id not in fetched:
                l1i_misses, miss_lines = il1.access_run(ilines)
                if self.l1i_eviction_free:
                    fetched.add(block_id)
                if l1i_misses:
                    result.l1i_misses += l1i_misses
                    l2i_misses = data.access_code(state.code_lines,
                                                  float(len(miss_lines)))
                    result.l2_accesses += l1i_misses
                    result.l2_misses += l2i_misses
                    cycles += (
                        l1i_misses * self.l1i_penalty
                        + l2i_misses * self.l2_penalty
                    )

            # --- data accesses ----------------------------------------------
            # Touches scale linearly in n and the visit is keyed by
            # (segment index, block), so any rep-aligned split of a
            # segment books exactly what the whole segment does.
            if memory is not None:
                touches = memory.touches_per_rep * n
                visit_touches = max(1.0, memory.touches_per_rep * seg_reps)
                if whole:
                    # What access_data books for a visit's only batch.
                    l1_hit, l2_hit = data.enter_visit(
                        memory.region, memory.ws_lines, visit_touches
                    )
                    l1m = touches * (1.0 - l1_hit)
                    l2m = l1m * (1.0 - l2_hit)
                else:
                    l1m, l2m = data.access_data(
                        memory.region, memory.ws_lines, (seg_index, block_id),
                        visit_touches, touches,
                    )
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
        if includes_end and not whole:
            for block_id, _, memory in statics.blocks:
                if memory is not None:
                    data.end_visit((seg_index, block_id))
