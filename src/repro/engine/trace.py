"""Dynamic trace model.

The dynamic execution of a workload is materialised once, deterministically,
as a sequence of run-length *segments*: "run this block sequence ``reps``
times".  Loop visits map to one header segment plus one body segment; glue
and noise blocks map to single-rep segments.

The canonical trace representation is **array-native**: contiguous flat
int64 arrays (``flat_blocks`` plus per-segment ``blocks_per_segment``,
``reps``, ``outer_index``, ``iter_base``, ``loop_id``) that the vectorized
profilers index directly.  :class:`Segment` tuples are
materialised lazily, one by one into a dict, only for the consumers that
still want object views (:meth:`Trace.clip`'s pieces, read by the
instruction-level OoO reference and the scalar profiling twins).

A trace holds nothing per segment beyond these arrays and what is
derived from them (offsets, rep lengths, starts).  Python-list copies of
the piece columns exist only for the oracle paths
(:meth:`Trace.piece_bounds`, :meth:`Trace.clip`); the block-level timing
simulator cuts the same pieces inline from lists it owns, which go away
with it, and never builds a :class:`Segment`.

Every consumer — the functional profiler, both detailed simulators, the
sampling cost accounting — reads the *same* trace, so baseline and sampled
results are directly comparable, exactly as SimPoint-style methods assume
when they mix `sim-fast` and `sim-outorder` runs of one binary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..errors import TraceError
from ..workloads.generator import Workload
from ..workloads.spec import BenchmarkSpec

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
    vectorized builder).  Either way
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

        #: Segment views materialised so far, by segment index (all of
        #: them when the trace was constructed from segments).
        self._segment_views: Dict[int, Segment] = (
            dict(enumerate(segments)) if segments is not None else {}
        )

    # ------------------------------------------------------------------
    # Lazy object views over the canonical arrays.
    def segment_at(self, index: int) -> Segment:
        """The (lazily materialised, memoised) Segment view of *index*."""
        seg = self._segment_views.get(index)
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
        return tuple(self.segment_at(i) for i in range(self.n_segments))

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

    @cached_property
    def _piece_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """Python-list copies of ``seg_starts``, ``rep_lengths`` and
        ``reps`` for the oracle paths (:meth:`piece_bounds`,
        :meth:`clip`): the piece arithmetic is plain int math per segment,
        which on lists avoids a NumPy scalar per access.  The timing walk
        keeps its own lists, so a run's trace never holds these."""
        return (
            self.seg_starts.tolist(),
            self.rep_lengths.tolist(),
            self.reps.tolist(),
        )

    def piece_bounds(
        self, start: int, end: int
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(seg_index, rep_offset, n_reps)`` per whole-rep piece
        covering the instruction range [start, end).

        Pieces are rounded *outward* to rep boundaries, so the union of the
        yielded pieces is a superset of the requested range; callers measure
        the instructions they actually simulated from the pieces themselves.
        This is the trace's piece arithmetic: :meth:`clip` wraps it in
        :class:`SegmentPiece` views, and the detailed walk repeats it
        inline, held to this method by tests.
        """
        if start < 0 or end > self.total_instructions or start >= end:
            raise TraceError(f"bad clip range [{start}, {end})")
        start, end = int(start), int(end)
        seg_starts, rep_lengths, reps = self._piece_columns
        index = bisect_right(seg_starts, start) - 1
        seg_start = seg_starts[index]
        while seg_start < end:
            seg_end = seg_starts[index + 1]
            rep_len = rep_lengths[index]
            first_rep = (max(start, seg_start) - seg_start) // rep_len
            # exclusive; at least one rep, at most the segment's reps
            last_rep = (min(end, seg_end) - seg_start + rep_len - 1) // rep_len
            last_rep = min(max(last_rep, first_rep + 1), reps[index])
            yield index, first_rep, last_rep - first_rep
            index += 1
            seg_start = seg_end

    def clip(self, start: int, end: int) -> Iterator[SegmentPiece]:
        """:meth:`piece_bounds` as :class:`SegmentPiece` views (each one
        materialises its segment's lazy :class:`Segment`)."""
        seg_starts, rep_lengths, _ = self._piece_columns
        for index, rep_offset, n_reps in self.piece_bounds(start, end):
            yield SegmentPiece(
                segment=self.segment_at(index),
                rep_offset=rep_offset,
                n_reps=n_reps,
                start_inst=seg_starts[index] + rep_offset * rep_lengths[index],
                seg_index=index,
            )

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
    :mod:`repro.backend`):

    * ``vectorized`` (default): the columns of one outer iteration are
      built once per regime and gathered in schedule order; one Python
      pass draws the RNG stream in the exact order the scalar builder
      draws it (jitter normals, noise uniforms/integers — the draws are
      interleaved and control-flow dependent, so their order is part of
      the trace's definition), keeping only the draws; the rep counts
      are then computed in one batched ``exp``/``rint`` pass, the noise
      segments inserted, and the trace is constructed array-native
      without ever materialising :class:`Segment` objects.
    * ``scalar``: the original object builder, kept as the differential
      reference.
    """

    #: Reps of the prologue init loop per ``prologue_iterations`` unit.
    INIT_LOOP_REPS = 25

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def build(self) -> Trace:
        """Unroll the schedule and return the trace."""
        if get_backend() == "scalar":
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
    def _build_vectorized(self) -> Trace:
        """Assemble the canonical arrays from per-regime templates.

        Every outer iteration of a regime emits the same segments (its
        header, then a header and a body per inner-loop visit) up to the
        body rep counts and the noise segments the RNG adds.  So the
        columns are built once per regime, gathered in schedule order,
        and the noise segments are inserted after the bodies that drew
        them.  The only per-entry Python work is the draw loop, which
        takes the stream in the scalar builder's order (jitter normal,
        noise uniform, noise block and reps: interleaved and control-flow
        dependent, so their order is part of the trace's definition).
        Body reps are one batched ``exp``/``rint``/``maximum`` pass over
        ``iterations * scale`` (the scalar expression's association) and
        the normals (0.0 when jitterless: ``exp(0) == 1`` exactly), which
        is bit-identical to the per-entry ``max(1, int(round(iterations
        * scale * factor)))``.
        """
        wl = self.workload
        spec = wl.spec
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

        # --- prologue: (flat blocks, reps, loop id) per segment ---------
        init_reps = self.INIT_LOOP_REPS * max(1, spec.prologue_iterations)
        prologue = (
            [(block, 1, -1) for block in wl.prologue_blocks]
            + [(wl.init_loop_header, 1, -1),
               (wl.init_loop_body, init_reps, wl.init_loop_id)]
            + [(block, reps, -1) for block, reps in wl.init_scans]
        )

        # --- one template per regime -------------------------------------
        # One outer iteration's segment columns (blocks per segment, reps
        # with 0 for a body's, loop id) and flat blocks, plus its visits'
        # trip counts and jitters in visit-major order.
        templates = []
        for layout in wl.regime_layouts:
            nblocks, reps, loop = [1], [1], [-1]
            flat, iterations, jitters = [wl.outer_header], [], []
            max_visits = max(l.spec.visits for l in layout.loops)
            for visit in range(max_visits):
                for inner in layout.loops:
                    if visit >= inner.spec.visits:
                        continue
                    nblocks += [1, len(inner.body_blocks)]
                    reps += [1, 0]
                    loop += [-1, inner.loop_id]
                    flat.append(inner.header_block)
                    flat.extend(inner.body_blocks)
                    iterations.append(inner.spec.iterations)
                    jitters.append(inner.spec.jitter)
            templates.append(tuple(
                np.array(column, dtype=np.int64)
                for column in (nblocks, reps, loop, flat)
            ) + (np.array(iterations, dtype=np.float64), jitters))

        # --- the draw loop, in scalar order ------------------------------
        noise = spec.noise
        noise_blocks = wl.noise_blocks
        n_noise = len(noise_blocks)
        # Generator.normal(0.0, jitter) returns 0.0 + jitter * z for the
        # same standard normal z, so this is the same float (and stream).
        draw_normal = rng.standard_normal
        draw_uniform = rng.random
        draw_integers = rng.integers
        normals: List[float] = []
        noisy: List[int] = []
        noise_flat: List[int] = []
        noise_reps: List[int] = []
        for regime_index in spec.schedule:
            for jitter in templates[regime_index][5]:
                normals.append(jitter * draw_normal() if jitter else 0.0)
                if noise and draw_uniform() < noise:
                    noisy.append(len(normals) - 1)
                    noise_flat.append(noise_blocks[int(draw_integers(n_noise))])
                    noise_reps.append(int(draw_integers(1, 5)))

        # --- the templates in schedule order, body reps filled in --------
        nblocks, reps, loop, flat, iterations = (
            np.concatenate([templates[r][column] for r in spec.schedule])
            for column in range(5)
        )
        n_outer = len(spec.schedule)
        outer = np.repeat(np.arange(n_outer, dtype=np.int64),
                          [len(templates[r][0]) for r in spec.schedule])
        body_rows = np.flatnonzero(reps == 0)
        scales = np.array([spec.scale_of(i) for i in range(n_outer)],
                          dtype=np.float64)
        bases = iterations * scales[outer[body_rows]]
        factors = np.exp(np.array(normals, dtype=np.float64))
        reps[body_rows] = np.maximum(1.0, np.rint(bases * factors)
                                     ).astype(np.int64)

        # --- noise segments, each right after the body that drew it ------
        if noisy:
            after = body_rows[noisy] + 1
            flat_after = np.concatenate(([0], np.cumsum(nblocks)))[after]
            flat = np.insert(flat, flat_after, noise_flat)
            outer = np.insert(outer, after, outer[after - 1])
            reps = np.insert(reps, after, noise_reps)
            nblocks = np.insert(nblocks, after, 1)
            loop = np.insert(loop, after, -1)

        n_prologue = len(prologue)
        blocks, prologue_reps, prologue_loop = zip(*prologue)
        arrays = {
            "flat_blocks": np.concatenate((blocks, flat)).astype(np.int64),
            "blocks_per_segment": np.concatenate(
                (np.ones(n_prologue, dtype=np.int64), nblocks)),
            "reps": np.concatenate((prologue_reps, reps)).astype(np.int64),
            "outer_index": np.concatenate(
                (np.full(n_prologue, -1, dtype=np.int64), outer)),
            "iter_base": np.zeros(n_prologue + len(reps), dtype=np.int64),
            "loop_id": np.concatenate(
                (prologue_loop, loop)).astype(np.int64),
        }
        return Trace(self.workload, arrays=arrays)


def build_trace(workload: Workload) -> Trace:
    """Convenience wrapper: unroll *workload* into its trace."""
    return TraceBuilder(workload).build()
