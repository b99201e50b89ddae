"""Functional simulator and profilers.

Plays the role of SimpleScalar's ``sim-fast`` plus the SimPoint BBV profiling
plug-in: executes the dynamic trace without timing, counting instructions and
collecting per-interval basic-block vectors.

Interval attribution: a segment's instructions are distributed over the
intervals it overlaps proportionally, using the segment's per-rep block
composition.  Attribution error is confined to partial reps at interval
boundaries (tens of instructions against 10K-instruction intervals) and is
zero for coarse intervals, whose boundaries coincide with segment boundaries.

The whole-trace run and the coarse/structure profilers are
backend-switched (:mod:`repro.backend`): the vectorized default
reduces each pass to a handful of weighted :func:`np.bincount` calls over
the trace's flat arrays, laid out so every accumulator cell receives its
additions in exactly the order the retained scalar loops add them — the
outputs are bit-identical, which the differential tests assert.  The
coarse pass expands its instances in chunks of bounded size
(:data:`_CHUNK_ENTRIES`), so its temporaries do not grow with the trace:
each accumulator cell belongs to one instance, and any positive bound
gives the same bytes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..errors import TraceError
from ..obs import FUNCTIONAL_INSTRUCTIONS, PROFILE_PASSES, MetricsRegistry
from .profiles import (
    CoarseIntervalProfile,
    FixedIntervalProfile,
    FunctionalResult,
    StructureProfile,
    StructureProfiles,
)
from .trace import Trace

#: Entries a coarse-profile chunk of instances expands: their (row,
#: block) entries plus their accumulator cells (the sub-chunk expansion
#: adds at most ``n_segments - 1`` rows per instance).  A chunk holds one
#: instance at least; any positive value gives the same bytes.
_CHUNK_ENTRIES = 1 << 14


class FunctionalSimulator:
    """Functional (no-timing) execution and profiling over a trace.

    *metrics* hooks the simulator into an observability registry at
    coarse granularity — one counter bump per pass, never per interval
    or block, so the hot loops stay untouched.  A private registry is
    used when none is supplied.
    """

    def __init__(
        self, trace: Trace, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.trace = trace
        self.program = trace.program
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    def run(self) -> FunctionalResult:
        """Execute the whole trace, returning aggregate block counts.

        Vectorized: one weighted bincount over the trace's flat block
        array; float64 holds the integer rep counts exactly (they are
        far below 2**53).  Scalar: the per-segment/per-block loop the
        bincount replaces, kept as the differential reference.
        """
        trace = self.trace
        if get_backend() == "scalar":
            counts = np.zeros(self.program.n_blocks, dtype=np.int64)
            for index in range(trace.n_segments):
                seg = trace.segment_at(index)
                for block in seg.blocks:
                    counts[block] += seg.reps
        else:
            counts = np.bincount(
                trace.flat_blocks,
                weights=np.repeat(
                    trace.reps, trace.blocks_per_segment
                ).astype(np.float64),
                minlength=self.program.n_blocks,
            ).astype(np.int64)
        instructions = counts * self.program.block_sizes
        self.metrics.counter(PROFILE_PASSES, kind="functional_run").inc()
        self.metrics.counter(FUNCTIONAL_INSTRUCTIONS).inc(
            float(instructions.sum())
        )
        return FunctionalResult(
            total_instructions=int(instructions.sum()),
            block_counts=counts,
            block_instructions=instructions,
        )

    # ------------------------------------------------------------------
    def profile_fixed_intervals(
        self,
        interval_size: int,
        start: int = 0,
        end: Optional[int] = None,
    ) -> FixedIntervalProfile:
        """Collect instruction-weighted BBVs for fixed-length intervals.

        With ``start``/``end`` the grid covers only [start, end) — the
        multi-level sampler uses this to re-profile *inside* one coarse
        simulation point.  Interval starts are absolute instruction numbers.
        """
        if interval_size <= 0:
            raise TraceError("interval_size must be positive")
        trace = self.trace
        if end is None:
            end = trace.total_instructions
        if not 0 <= start < end <= trace.total_instructions:
            raise TraceError(f"bad profile range [{start}, {end})")
        total = end - start
        n_intervals = math.ceil(total / interval_size)
        n_blocks = self.program.n_blocks
        bbv = self._accumulate_bbv(start, end, interval_size, n_intervals)

        starts = np.arange(n_intervals, dtype=np.int64) * interval_size + start
        instructions = np.full(n_intervals, interval_size, dtype=np.int64)
        instructions[-1] = end - int(starts[-1])
        self.metrics.counter(PROFILE_PASSES, kind="fixed").inc()
        self.metrics.counter(FUNCTIONAL_INSTRUCTIONS).inc(float(total))
        return FixedIntervalProfile(
            interval_size=interval_size,
            starts=starts,
            instructions=instructions,
            bbv=bbv,
        )

    def _accumulate_bbv(
        self, start: int, end: int, interval_size: int, n_intervals: int
    ) -> np.ndarray:
        """Instruction-weighted BBV accumulation over [start, end).

        Fully vectorized: every (segment, interval, block) contribution
        becomes one entry of a weighted :func:`np.bincount` over flattened
        (interval, block) cell ids.  Entries are laid out in segment order
        and each cell receives at most one entry per segment, so every BBV
        cell accumulates its additions in exactly the order the scalar
        per-segment loop used — the result is bit-identical.
        """
        trace = self.trace
        n_blocks = self.program.n_blocks
        lo_index = 0 if start == 0 else trace.locate(start)
        hi_index = trace.locate(end - 1) + 1

        # Clipped [seg_lo, seg_hi) instruction bounds per overlapping segment.
        seg_lo = np.maximum(trace.seg_starts[lo_index:hi_index], start)
        seg_hi = np.minimum(trace.seg_starts[lo_index + 1:hi_index + 1], end)
        first = (seg_lo - start) // interval_size
        last = (seg_hi - 1 - start) // interval_size
        spans = last - first + 1

        # One row per (segment, overlapped interval), in segment order.
        n_rows = int(spans.sum())
        row_seg = np.repeat(np.arange(hi_index - lo_index), spans)
        row_offsets = np.cumsum(spans) - spans
        intra = np.arange(n_rows, dtype=np.int64) - np.repeat(row_offsets, spans)
        row_iv = first[row_seg] + intra
        piece_lo = np.maximum(seg_lo[row_seg], start + row_iv * interval_size)
        piece_hi = np.minimum(
            seg_hi[row_seg], start + (row_iv + 1) * interval_size
        )
        overlaps = (piece_hi - piece_lo).astype(np.float64)

        # Expand rows to (row, block) entries via the trace's flat arrays.
        n_per_row = trace.blocks_per_segment[lo_index + row_seg]
        n_entries = int(n_per_row.sum())
        ent_row = np.repeat(np.arange(n_rows, dtype=np.int64), n_per_row)
        ent_offsets = np.cumsum(n_per_row) - n_per_row
        ent_intra = (
            np.arange(n_entries, dtype=np.int64)
            - np.repeat(ent_offsets, n_per_row)
        )
        flat_index = trace.flat_offsets[lo_index + row_seg[ent_row]] + ent_intra
        weights = overlaps[ent_row] * trace.flat_composition[flat_index]
        cells = row_iv[ent_row] * n_blocks + trace.flat_blocks[flat_index]
        return np.bincount(
            cells, weights=weights, minlength=n_intervals * n_blocks
        ).reshape(n_intervals, n_blocks)

    # ------------------------------------------------------------------
    def profile_coarse_intervals(
        self,
        n_segments: int = 4,
        bounds: Optional[np.ndarray] = None,
    ) -> CoarseIntervalProfile:
        """Collect BBVs per outer-loop iteration instance.

        ``n_segments`` temporal sub-chunk BBVs per instance feed the COASTS
        signature.  ``bounds`` overrides the instance boundaries (an (n, 2)
        array), which the multi-level sampler uses to re-profile inside one
        coarse simulation point.
        """
        if n_segments <= 0:
            raise TraceError("n_segments must be positive")
        trace = self.trace
        if bounds is None:
            bounds = trace.outer_bounds()
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise TraceError("bounds must be an (n, 2) array")
        if get_backend() == "scalar":
            bbv, seg_bbv = self._coarse_scalar(bounds, n_segments)
        else:
            bbv, seg_bbv = self._coarse_vectorized(bounds, n_segments)

        starts = bounds[:, 0].copy()
        instructions = (bounds[:, 1] - bounds[:, 0]).astype(np.int64)
        self.metrics.counter(PROFILE_PASSES, kind="coarse").inc()
        self.metrics.counter(FUNCTIONAL_INSTRUCTIONS).inc(
            float(instructions.sum())
        )
        return CoarseIntervalProfile(
            starts=starts,
            instructions=instructions,
            bbv=bbv,
            segment_bbvs=seg_bbv,
        )

    def _coarse_scalar(
        self, bounds: np.ndarray, n_segments: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance piece walk — the differential reference."""
        trace = self.trace
        n_instances = len(bounds)
        n_blocks = self.program.n_blocks
        bbv = np.zeros((n_instances, n_blocks), dtype=np.float64)
        seg_bbv = np.zeros((n_instances, n_segments, n_blocks), dtype=np.float64)

        for i in range(n_instances):
            start, end = int(bounds[i, 0]), int(bounds[i, 1])
            if end <= start:
                raise TraceError(f"instance {i}: empty bounds")
            length = end - start
            chunk = length / n_segments
            for piece in trace.clip(start, end):
                # Precomputed flat slices replace per-piece np.fromiter.
                flat_lo = int(trace.flat_offsets[piece.seg_index])
                flat_hi = int(trace.flat_offsets[piece.seg_index + 1])
                block_ids = trace.flat_blocks[flat_lo:flat_hi]
                rep_len = int(trace.rep_lengths[piece.seg_index])
                composition = trace.flat_composition[flat_lo:flat_hi]
                p_start = max(piece.start_inst, start)
                p_end = min(piece.start_inst + piece.n_reps * rep_len, end)
                if p_end <= p_start:
                    continue
                insts = p_end - p_start
                bbv[i, block_ids] += insts * composition
                # distribute over temporal sub-chunks
                first = int((p_start - start) / chunk)
                last = int((p_end - 1 - start) / chunk)
                first = min(first, n_segments - 1)
                last = min(last, n_segments - 1)
                if first == last:
                    seg_bbv[i, first][block_ids] += insts * composition
                else:
                    edges = [p_start]
                    for s in range(first + 1, last + 1):
                        edges.append(start + int(round(s * chunk)))
                    edges.append(p_end)
                    for s, (edge_lo, edge_hi) in enumerate(
                        zip(edges[:-1], edges[1:]), start=first
                    ):
                        if edge_hi > edge_lo:
                            seg_bbv[i, s][block_ids] += \
                                (edge_hi - edge_lo) * composition
        return bbv, seg_bbv

    def _coarse_vectorized(
        self, bounds: np.ndarray, n_segments: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted-bincount passes over (instance, sub-chunk, block)
        cells, one per chunk of instances.

        All bounds are validated first, so an error names the same
        instance whatever the chunking.  A chunk is a run of instances
        whose expanded (row, block) entries plus accumulator cells stay
        within :data:`_CHUNK_ENTRIES` (or one instance that alone
        exceeds it), which bounds the pass's temporaries independently
        of the trace's length.  Every ``bbv``/``seg_bbv`` cell belongs to
        one instance, so splitting between instances changes no cell's
        additions: the profile is the same bytes for any positive bound.
        """
        trace = self.trace
        n_instances = len(bounds)
        n_blocks = self.program.n_blocks
        bbv = np.zeros((n_instances, n_blocks), dtype=np.float64)
        seg_bbv = np.zeros((n_instances, n_segments, n_blocks),
                           dtype=np.float64)
        starts_b = bounds[:, 0]
        ends_b = bounds[:, 1]
        total = trace.total_instructions
        bad = (ends_b <= starts_b) | (starts_b < 0) | (ends_b > total)
        if bad.any():
            i = int(np.argmax(bad))
            start, end = int(starts_b[i]), int(ends_b[i])
            if end <= start:
                raise TraceError(f"instance {i}: empty bounds")
            raise TraceError(f"bad clip range [{start}, {end})")

        # Each instance overlaps segments [lo_idx, hi_idx).
        seg_starts = trace.seg_starts
        lo_idx = np.searchsorted(seg_starts, starts_b, side="right") - 1
        hi_idx = np.searchsorted(seg_starts, ends_b - 1, side="right")
        # Per instance: its (row, block) entries plus its accumulator
        # cells; each chunk [lo, hi) sums to at most _CHUNK_ENTRIES.
        sizes = (trace.flat_offsets[hi_idx] - trace.flat_offsets[lo_idx]
                 + (n_segments + 1) * n_blocks)
        ends = np.cumsum(sizes)
        lo = 0
        while lo < n_instances:
            hi = int(np.searchsorted(
                ends, ends[lo] - sizes[lo] + _CHUNK_ENTRIES, side="right"))
            hi = max(hi, lo + 1)
            bbv[lo:hi], seg_bbv[lo:hi] = self._coarse_chunk(
                starts_b[lo:hi], ends_b[lo:hi], lo_idx[lo:hi],
                hi_idx[lo:hi], n_segments,
            )
            lo = hi
        return bbv, seg_bbv

    def _coarse_chunk(
        self,
        starts_b: np.ndarray,
        ends_b: np.ndarray,
        lo_idx: np.ndarray,
        hi_idx: np.ndarray,
        n_segments: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The BBVs of one chunk of instances [start, end), each
        overlapping segments [lo_idx, hi_idx).

        Entry layout is instance-major, then trace order, then sub-chunk,
        then block position — exactly the order the scalar walk issues its
        ``+=`` updates, and ``np.bincount`` adds entries in index order, so
        every accumulator cell sees the same addition sequence and the
        profile is bit-identical.  Sub-chunk edges reproduce the scalar
        arithmetic operation for operation (truncating division for chunk
        indices, round-half-even for interior edges); zero-width edge
        spans contribute exact ``+0.0`` no-ops instead of being skipped.
        """
        trace = self.trace
        n_instances = len(starts_b)
        n_blocks = self.program.n_blocks
        seg_starts = trace.seg_starts

        # One row per (instance, overlapped segment), instance-major.
        spans = hi_idx - lo_idx
        n_rows = int(spans.sum())
        row_inst = np.repeat(np.arange(n_instances, dtype=np.int64), spans)
        row_offsets = np.cumsum(spans) - spans
        intra = np.arange(n_rows, dtype=np.int64) - np.repeat(row_offsets, spans)
        row_seg = lo_idx[row_inst] + intra
        p_lo = np.maximum(starts_b[row_inst], seg_starts[row_seg])
        p_hi = np.minimum(ends_b[row_inst], seg_starts[row_seg + 1])
        insts = (p_hi - p_lo).astype(np.float64)

        # Whole-instance BBV: expand rows to (row, block) entries.
        n_per_row = trace.blocks_per_segment[row_seg]
        n_entries = int(n_per_row.sum())
        ent_row = np.repeat(np.arange(n_rows, dtype=np.int64), n_per_row)
        ent_offsets = np.cumsum(n_per_row) - n_per_row
        ent_intra = (
            np.arange(n_entries, dtype=np.int64)
            - np.repeat(ent_offsets, n_per_row)
        )
        flat_index = trace.flat_offsets[row_seg[ent_row]] + ent_intra
        weights = insts[ent_row] * trace.flat_composition[flat_index]
        cells = row_inst[ent_row] * n_blocks + trace.flat_blocks[flat_index]
        bbv = np.bincount(
            cells, weights=weights, minlength=n_instances * n_blocks
        ).reshape(n_instances, n_blocks)

        # Temporal sub-chunk BBVs: one sub-row per (row, overlapped chunk).
        chunk = (ends_b - starts_b).astype(np.float64) / n_segments
        row_start = starts_b[row_inst]
        row_chunk = chunk[row_inst]
        first = ((p_lo - row_start) / row_chunk).astype(np.int64)
        last = ((p_hi - 1 - row_start) / row_chunk).astype(np.int64)
        first = np.minimum(first, n_segments - 1)
        last = np.minimum(last, n_segments - 1)
        sub_counts = last - first + 1
        n_sub = int(sub_counts.sum())
        sub_row = np.repeat(np.arange(n_rows, dtype=np.int64), sub_counts)
        sub_offsets = np.cumsum(sub_counts) - sub_counts
        sub_intra = (
            np.arange(n_sub, dtype=np.int64)
            - np.repeat(sub_offsets, sub_counts)
        )
        sub_s = first[sub_row] + sub_intra
        edge_lo = np.where(
            sub_s == first[sub_row],
            p_lo[sub_row],
            row_start[sub_row]
            + np.rint(sub_s * row_chunk[sub_row]).astype(np.int64),
        )
        edge_hi = np.where(
            sub_s == last[sub_row],
            p_hi[sub_row],
            row_start[sub_row]
            + np.rint((sub_s + 1) * row_chunk[sub_row]).astype(np.int64),
        )
        sub_w = np.maximum(edge_hi - edge_lo, 0).astype(np.float64)

        # Expand sub-rows to (sub-row, block) entries.
        n_per_sub = n_per_row[sub_row]
        n_sent = int(n_per_sub.sum())
        sent_sub = np.repeat(np.arange(n_sub, dtype=np.int64), n_per_sub)
        sent_offsets = np.cumsum(n_per_sub) - n_per_sub
        sent_intra = (
            np.arange(n_sent, dtype=np.int64)
            - np.repeat(sent_offsets, n_per_sub)
        )
        sub_row_of = sub_row[sent_sub]
        sflat = trace.flat_offsets[row_seg[sub_row_of]] + sent_intra
        sweights = sub_w[sent_sub] * trace.flat_composition[sflat]
        scells = (
            (row_inst[sub_row_of] * n_segments + sub_s[sent_sub]) * n_blocks
            + trace.flat_blocks[sflat]
        )
        seg_bbv = np.bincount(
            scells, weights=sweights,
            minlength=n_instances * n_segments * n_blocks,
        ).reshape(n_instances, n_segments, n_blocks)
        return bbv, seg_bbv

    # ------------------------------------------------------------------
    def profile_structures(self) -> StructureProfiles:
        """Dynamic coverage and instance counts per cyclic structure."""
        trace = self.trace
        program = self.program
        total = trace.total_instructions
        if get_backend() == "scalar":
            insts: Dict[int, int] = {l.loop_id: 0 for l in program.loops}
            instances: Dict[int, int] = {l.loop_id: 0 for l in program.loops}
            # Inner-loop instructions from segments tagged with a loop id;
            # the visit count is the number of body segments.
            for index in range(trace.n_segments):
                loop_id = int(trace.loop_id[index])
                if loop_id >= 0:
                    insts[loop_id] += int(trace.segment_instructions[index])
                    instances[loop_id] += 1
        else:
            # Weighted bincount over the tagged segments' loop ids; the
            # integer instruction totals are exact in float64 (< 2**53).
            loop_ids = [loop.loop_id for loop in program.loops]
            minlength = max(loop_ids) + 1 if loop_ids else 1
            tagged = trace.loop_id >= 0
            ids = trace.loop_id[tagged]
            if ids.size:
                minlength = max(minlength, int(ids.max()) + 1)
            inst_sums = np.bincount(
                ids,
                weights=trace.segment_instructions[tagged].astype(np.float64),
                minlength=minlength,
            ).astype(np.int64)
            inst_counts = np.bincount(ids, minlength=minlength)
            insts = {l.loop_id: int(inst_sums[l.loop_id]) for l in program.loops}
            instances = {
                l.loop_id: int(inst_counts[l.loop_id]) for l in program.loops
            }

        # The outer loop covers everything after the prologue; one instance
        # per outer iteration.  Propagate inner-loop headers implicitly.
        outer_id = trace.workload.outer_loop_id
        insts[outer_id] = total - trace.prologue_end
        instances[outer_id] = trace.spec.n_outer_iterations

        self.metrics.counter(PROFILE_PASSES, kind="structure").inc()
        profiles: StructureProfiles = {}
        for loop in program.loops:
            profiles[loop.loop_id] = StructureProfile(
                loop_id=loop.loop_id,
                depth=loop.depth,
                instructions=insts[loop.loop_id],
                instances=instances[loop.loop_id],
                coverage=insts[loop.loop_id] / total if total else 0.0,
            )
        return profiles
