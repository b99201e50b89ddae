"""Dynamic trace model.

The dynamic execution of a workload is materialised once, deterministically,
as a sequence of run-length *segments*: "run this block sequence ``reps``
times".  Loop visits map to one header segment plus one body segment; glue
and noise blocks map to single-rep segments.

The canonical trace representation is **array-native**: contiguous flat
int64 arrays (``flat_blocks`` plus per-segment ``blocks_per_segment``,
``reps``, ``outer_index``, ``iter_base``, ``loop_id``) that the vectorized
profilers index directly.  :class:`Segment` tuples are
materialised lazily, only for the consumers that still want object views
(the detailed simulators' per-piece bookkeeping).

Every consumer — the functional profiler, both detailed simulators, the
sampling cost accounting — reads the *same* trace, so baseline and sampled
results are directly comparable, exactly as SimPoint-style methods assume
when they mix `sim-fast` and `sim-outorder` runs of one binary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import TraceError
from ..workloads.generator import Workload
from ..workloads.spec import BenchmarkSpec
from .backend import resolve_backend

#: The per-segment columns of an array-native trace, in canonical order
#: (``flat_blocks`` first, then the five per-segment columns).
TRACE_ARRAY_FIELDS: Tuple[str, ...] = (
    "flat_blocks",
    "blocks_per_segment",
    "reps",
    "outer_index",
    "iter_base",
    "loop_id",
)


@dataclass(frozen=True)
class Segment:
    """A run-length piece of the dynamic trace.

    ``blocks`` execute in order, the whole sequence repeating ``reps`` times.
    ``outer_index`` is the owning outer-loop iteration (-1 in the prologue).
    ``iter_base`` is the loop-iteration index of the first rep (0 for loop
    visits: every visit re-sweeps its data from the start).  ``loop_id`` is
    the inner loop id, or -1 for glue/noise segments.
    """

    blocks: Tuple[int, ...]
    reps: int
    outer_index: int = -1
    iter_base: int = 0
    loop_id: int = -1

    def __post_init__(self) -> None:
        if not self.blocks:
            raise TraceError("segment with no blocks")
        if self.reps < 1:
            raise TraceError("segment reps must be >= 1")
        if self.iter_base < 0:
            raise TraceError("segment iter_base must be >= 0")


@dataclass(frozen=True)
class SegmentPiece:
    """A whole-rep sub-range of one segment, produced by :meth:`Trace.clip`.

    ``seg_index`` is the segment's index in its trace (-1 when unknown);
    consumers use it to look up precomputed per-segment data.
    """

    segment: Segment
    rep_offset: int
    n_reps: int
    start_inst: int
    seg_index: int = -1

    def __post_init__(self) -> None:
        if self.n_reps < 1 or self.rep_offset < 0:
            raise TraceError("invalid segment piece")
        if self.rep_offset + self.n_reps > self.segment.reps:
            raise TraceError("segment piece exceeds segment reps")


def _arrays_from_segments(segments: List[Segment]) -> Dict[str, np.ndarray]:
    """Flatten :class:`Segment` objects into the canonical trace arrays.

    This is the scalar-reference conversion: one Python pass in segment
    order, so the resulting arrays are identical to what the vectorized
    builder emits directly.
    """
    flat: List[int] = []
    nblocks: List[int] = []
    reps: List[int] = []
    outer: List[int] = []
    iter_base: List[int] = []
    loop: List[int] = []
    for seg in segments:
        flat.extend(seg.blocks)
        nblocks.append(len(seg.blocks))
        reps.append(seg.reps)
        outer.append(seg.outer_index)
        iter_base.append(seg.iter_base)
        loop.append(seg.loop_id)
    return {
        "flat_blocks": np.array(flat, dtype=np.int64),
        "blocks_per_segment": np.array(nblocks, dtype=np.int64),
        "reps": np.array(reps, dtype=np.int64),
        "outer_index": np.array(outer, dtype=np.int64),
        "iter_base": np.array(iter_base, dtype=np.int64),
        "loop_id": np.array(loop, dtype=np.int64),
    }


class Trace:
    """The materialised dynamic trace of one workload.

    Construct from a list of :class:`Segment` objects (the scalar path)
    or directly from the canonical arrays via ``arrays=`` (the
    vectorized builder and the shared-memory attach path).  Either way
    the canonical state is the flat arrays; ``segments`` materialises
    object views lazily.
    """

    def __init__(
        self,
        workload: Workload,
        segments: Optional[List[Segment]] = None,
        *,
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if arrays is None:
            if not segments:
                raise TraceError("empty trace")
            arrays = _arrays_from_segments(list(segments))
        elif segments is not None:
            raise TraceError("pass segments or arrays, not both")
        self.workload = workload
        self.program = workload.program

        self.flat_blocks = np.asarray(arrays["flat_blocks"], dtype=np.int64)
        self.blocks_per_segment = np.asarray(
            arrays["blocks_per_segment"], dtype=np.int64
        )
        self.reps = np.asarray(arrays["reps"], dtype=np.int64)
        self.outer_index = np.asarray(arrays["outer_index"], dtype=np.int64)
        self.iter_base = np.asarray(arrays["iter_base"], dtype=np.int64)
        self.loop_id = np.asarray(arrays["loop_id"], dtype=np.int64)
        n = len(self.reps)
        if n == 0:
            raise TraceError("empty trace")
        for field in TRACE_ARRAY_FIELDS[2:]:
            if len(arrays[field]) != n:
                raise TraceError(f"trace array {field!r} length mismatch")
        if (self.blocks_per_segment < 1).any():
            raise TraceError("segment with no blocks")
        if (self.reps < 1).any():
            raise TraceError("segment reps must be >= 1")
        if (self.iter_base < 0).any():
            raise TraceError("segment iter_base must be >= 0")
        self.flat_offsets = np.concatenate(
            ([0], np.cumsum(self.blocks_per_segment))
        ).astype(np.int64)
        if int(self.flat_offsets[-1]) != len(self.flat_blocks):
            raise TraceError("trace flat_blocks length mismatch")

        sizes = self.program.block_sizes
        self.rep_lengths = np.add.reduceat(
            sizes[self.flat_blocks], self.flat_offsets[:-1]
        ).astype(np.int64)
        self.segment_instructions = self.rep_lengths * self.reps
        self.seg_starts = np.concatenate(
            ([0], np.cumsum(self.segment_instructions))
        ).astype(np.int64)
        self.total_instructions = int(self.seg_starts[-1])

        # First-start per outer iteration; iterations are emitted in
        # order, so missing ones inherit the next iteration's start.
        n_outer = workload.spec.n_outer_iterations
        outer_starts = np.full(n_outer + 1, self.total_instructions,
                               dtype=np.int64)
        tagged = self.outer_index >= 0
        if tagged.any():
            np.minimum.at(
                outer_starts, self.outer_index[tagged],
                self.seg_starts[:-1][tagged],
            )
        outer_starts = np.minimum.accumulate(outer_starts[::-1])[::-1]
        self.outer_starts = outer_starts
        self.prologue_end = int(outer_starts[0])

        #: Lazily materialised Segment views (prefilled when the trace
        #: was constructed from segments in the first place).
        self._segment_views: List[Optional[Segment]] = (
            list(segments) if segments is not None else [None] * n
        )

    # ------------------------------------------------------------------
    # Lazy object views over the canonical arrays.
    def segment_at(self, index: int) -> Segment:
        """The (lazily materialised, memoised) Segment view of *index*."""
        seg = self._segment_views[index]
        if seg is None:
            lo = int(self.flat_offsets[index])
            hi = int(self.flat_offsets[index + 1])
            seg = Segment(
                blocks=tuple(int(b) for b in self.flat_blocks[lo:hi]),
                reps=int(self.reps[index]),
                outer_index=int(self.outer_index[index]),
                iter_base=int(self.iter_base[index]),
                loop_id=int(self.loop_id[index]),
            )
            self._segment_views[index] = seg
        return seg

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """All Segment views (materialises any not yet built)."""
        return tuple(
            self.segment_at(i) for i in range(len(self._segment_views))
        )

    @cached_property
    def flat_composition(self) -> np.ndarray:
        """Per flat entry: the block's share of its segment's rep length."""
        sizes = self.program.block_sizes[self.flat_blocks].astype(np.float64)
        rep_lens = np.repeat(
            self.rep_lengths.astype(np.float64), self.blocks_per_segment
        )
        return sizes / rep_lens

    def arrays(self) -> Dict[str, np.ndarray]:
        """The canonical arrays, keyed by :data:`TRACE_ARRAY_FIELDS`."""
        return {field: getattr(self, field) for field in TRACE_ARRAY_FIELDS}

    # ------------------------------------------------------------------
    @property
    def spec(self) -> BenchmarkSpec:
        """The benchmark spec this trace was unrolled from."""
        return self.workload.spec

    @property
    def n_segments(self) -> int:
        """Number of run-length segments."""
        return len(self.reps)

    def segment_span(self, index: int) -> Tuple[int, int]:
        """Instruction range [start, end) covered by segment *index*."""
        return int(self.seg_starts[index]), int(self.seg_starts[index + 1])

    def locate(self, inst: int) -> int:
        """Index of the segment containing instruction number *inst*."""
        if not 0 <= inst < self.total_instructions:
            raise TraceError(
                f"instruction {inst} outside trace of "
                f"{self.total_instructions} instructions"
            )
        return int(np.searchsorted(self.seg_starts, inst, side="right") - 1)

    def outer_bounds(self) -> np.ndarray:
        """(n_outer, 2) array of [start, end) per outer iteration."""
        starts = self.outer_starts
        return np.stack([starts[:-1], starts[1:]], axis=1)

    def clip(self, start: int, end: int) -> Iterator[SegmentPiece]:
        """Yield whole-rep pieces covering the instruction range [start, end).

        Pieces are rounded *outward* to rep boundaries, so the union of the
        yielded pieces is a superset of the requested range; callers measure
        the instructions they actually simulated from the pieces themselves.
        """
        if start < 0 or end > self.total_instructions or start >= end:
            raise TraceError(f"bad clip range [{start}, {end})")
        index = self.locate(start)
        while index < self.n_segments:
            seg_start, seg_end = self.segment_span(index)
            if seg_start >= end:
                break
            seg = self.segment_at(index)
            rep_len = int(self.rep_lengths[index])
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            first_rep = (lo - seg_start) // rep_len
            last_rep = (hi - seg_start + rep_len - 1) // rep_len  # exclusive
            last_rep = min(max(last_rep, first_rep + 1), seg.reps)
            yield SegmentPiece(
                segment=seg,
                rep_offset=int(first_rep),
                n_reps=int(last_rep - first_rep),
                start_inst=int(seg_start + first_rep * rep_len),
                seg_index=index,
            )
            index += 1

    def rep_bounds(self, start: int, end: int) -> Tuple[int, int]:
        """The range [start, end) rounded outward to rep boundaries: the
        exact span :meth:`clip` yields pieces over."""
        if start < 0 or end > self.total_instructions or start >= end:
            raise TraceError(f"bad clip range [{start}, {end})")
        first = self.locate(start)
        seg_start = int(self.seg_starts[first])
        rep_len = int(self.rep_lengths[first])
        lo = seg_start + (start - seg_start) // rep_len * rep_len
        last = self.locate(end - 1)
        seg_start = int(self.seg_starts[last])
        rep_len = int(self.rep_lengths[last])
        hi = seg_start + ((end - 1 - seg_start) // rep_len + 1) * rep_len
        return lo, hi


class TraceBuilder:
    """Deterministically unroll a workload's schedule into a trace.

    Two backends produce byte-identical traces (see
    :mod:`repro.engine.backend`):

    * ``vectorized`` (default): one Python pass draws the RNG stream in
      the exact order the scalar builder draws it (jitter normals, noise
      uniforms/integers — the draws are interleaved and control-flow
      dependent, so their order is part of the trace's definition) while
      appending plain ints to flat columns; the jitter factors and rep
      counts are then computed in one batched ``exp``/``rint`` pass, and
      the trace is constructed array-native without ever materialising
      :class:`Segment` objects.
    * ``scalar``: the original object builder, kept as the differential
      reference.
    """

    #: Reps of the prologue init loop per ``prologue_iterations`` unit.
    INIT_LOOP_REPS = 25

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def build(self, backend: Optional[str] = None) -> Trace:
        """Unroll the schedule and return the trace."""
        if resolve_backend(backend) == "scalar":
            return self._build_scalar()
        return self._build_vectorized()

    # ------------------------------------------------------------------
    def _build_scalar(self) -> Trace:
        """Unroll into Segment objects (the reference implementation)."""
        wl = self.workload
        spec = wl.spec
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        segments: List[Segment] = []

        # --- prologue --------------------------------------------------
        for block in wl.prologue_blocks:
            segments.append(Segment(blocks=(block,), reps=1))
        init_reps = self.INIT_LOOP_REPS * max(1, spec.prologue_iterations)
        segments.append(Segment(blocks=(wl.init_loop_header,), reps=1))
        segments.append(
            Segment(
                blocks=(wl.init_loop_body,), reps=init_reps,
                loop_id=wl.init_loop_id,
            )
        )
        for scan_block, scan_reps in wl.init_scans:
            segments.append(Segment(blocks=(scan_block,), reps=scan_reps))

        # --- main outer loop --------------------------------------------
        # Every visit re-sweeps its loop's working set from the start
        # (iter_base = 0): loops re-read the same data on every visit, the
        # temporal locality that makes phase behaviour stationary across
        # iteration instances.
        for outer_index, regime_index in enumerate(spec.schedule):
            layout = wl.regime_layouts[regime_index]
            scale = spec.scale_of(outer_index)
            segments.append(
                Segment(blocks=(wl.outer_header,), reps=1,
                        outer_index=outer_index)
            )
            max_visits = max(l.spec.visits for l in layout.loops)
            for visit in range(max_visits):
                for inner in layout.loops:
                    if visit >= inner.spec.visits:
                        continue
                    jitter = inner.spec.jitter
                    factor = float(np.exp(rng.normal(0.0, jitter))) if jitter else 1.0
                    reps = max(1, int(round(inner.spec.iterations * scale * factor)))
                    segments.append(
                        Segment(blocks=(inner.header_block,), reps=1,
                                outer_index=outer_index)
                    )
                    segments.append(
                        Segment(
                            blocks=inner.body_blocks,
                            reps=reps,
                            outer_index=outer_index,
                            iter_base=0,
                            loop_id=inner.loop_id,
                        )
                    )
                    if spec.noise and rng.random() < spec.noise:
                        noise_block = wl.noise_blocks[
                            int(rng.integers(len(wl.noise_blocks)))
                        ]
                        segments.append(
                            Segment(
                                blocks=(noise_block,),
                                reps=int(rng.integers(1, 5)),
                                outer_index=outer_index,
                            )
                        )
        return Trace(self.workload, segments)

    # ------------------------------------------------------------------
    def _regime_entries(self) -> List[List[Tuple[int, List[int], int, int, float]]]:
        """Per regime: the ordered (visit-major) inner-loop entry list.

        Each entry is ``(header_block, body_blocks, loop_id, iterations,
        jitter)`` — the schedule-independent part of one inner-loop visit,
        precomputed once so the unroll walk touches no layout objects.
        """
        entries_per_regime = []
        for layout in self.workload.regime_layouts:
            entries = []
            max_visits = max(l.spec.visits for l in layout.loops)
            for visit in range(max_visits):
                for inner in layout.loops:
                    if visit >= inner.spec.visits:
                        continue
                    entries.append((
                        inner.header_block,
                        list(inner.body_blocks),
                        inner.loop_id,
                        inner.spec.iterations,
                        inner.spec.jitter,
                    ))
            entries_per_regime.append(entries)
        return entries_per_regime

    def _build_vectorized(self) -> Trace:
        """Emit the canonical arrays directly, batching the float math."""
        wl = self.workload
        spec = wl.spec
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

        # Per-segment columns, filled by one walk in segment order.
        flat: List[int] = []
        nblocks: List[int] = []
        reps: List[int] = []
        outer: List[int] = []
        loop: List[int] = []
        add_flat = flat.append
        ext_flat = flat.extend
        add_n = nblocks.append
        add_r = reps.append
        add_o = outer.append
        add_l = loop.append

        # --- prologue --------------------------------------------------
        for block in wl.prologue_blocks:
            add_flat(block); add_n(1); add_r(1); add_o(-1); add_l(-1)
        init_reps = self.INIT_LOOP_REPS * max(1, spec.prologue_iterations)
        add_flat(wl.init_loop_header); add_n(1); add_r(1); add_o(-1); add_l(-1)
        add_flat(wl.init_loop_body); add_n(1); add_r(init_reps); add_o(-1)
        add_l(wl.init_loop_id)
        for scan_block, scan_reps in wl.init_scans:
            add_flat(scan_block); add_n(1); add_r(scan_reps); add_o(-1); add_l(-1)

        # --- main outer loop -------------------------------------------
        # The walk draws the RNG stream in scalar order and leaves a rep
        # placeholder per body segment; `normals` (0.0 when jitterless:
        # exp(0) == 1 exactly) and `bases` ((iterations * scale), the
        # scalar expression's association) feed one vectorized
        # exp/rint/maximum pass below that is bit-identical to the
        # per-entry max(1, int(round(iterations * scale * factor))).
        entries_per_regime = self._regime_entries()
        noise = spec.noise
        noise_blocks = wl.noise_blocks
        n_noise = len(noise_blocks)
        draw_normal = rng.normal
        draw_uniform = rng.random
        draw_integers = rng.integers
        outer_header = wl.outer_header
        normals: List[float] = []
        bases: List[float] = []
        body_rows: List[int] = []
        for outer_index, regime_index in enumerate(spec.schedule):
            scale = spec.scale_of(outer_index)
            add_flat(outer_header); add_n(1); add_r(1); add_o(outer_index)
            add_l(-1)
            for header, body, loop_id, iterations, jitter in \
                    entries_per_regime[regime_index]:
                normals.append(draw_normal(0.0, jitter) if jitter else 0.0)
                bases.append(iterations * scale)
                add_flat(header); add_n(1); add_r(1); add_o(outer_index)
                add_l(-1)
                ext_flat(body)
                body_rows.append(len(reps))
                add_n(len(body)); add_r(0); add_o(outer_index); add_l(loop_id)
                if noise and draw_uniform() < noise:
                    add_flat(noise_blocks[int(draw_integers(n_noise))])
                    add_n(1); add_r(int(draw_integers(1, 5)))
                    add_o(outer_index); add_l(-1)

        reps_arr = np.array(reps, dtype=np.int64)
        if body_rows:
            factors = np.exp(np.array(normals, dtype=np.float64))
            body_reps = np.maximum(
                1.0, np.rint(np.array(bases, dtype=np.float64) * factors)
            ).astype(np.int64)
            reps_arr[np.array(body_rows, dtype=np.int64)] = body_reps
        n = len(reps_arr)
        arrays = {
            "flat_blocks": np.array(flat, dtype=np.int64),
            "blocks_per_segment": np.array(nblocks, dtype=np.int64),
            "reps": reps_arr,
            "outer_index": np.array(outer, dtype=np.int64),
            "iter_base": np.zeros(n, dtype=np.int64),
            "loop_id": np.array(loop, dtype=np.int64),
        }
        return Trace(self.workload, arrays=arrays)


def build_trace(workload: Workload, backend: Optional[str] = None) -> Trace:
    """Convenience wrapper: unroll *workload* into its trace."""
    return TraceBuilder(workload).build(backend=backend)
