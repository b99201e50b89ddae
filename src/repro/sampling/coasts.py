"""COASTS: COarse-grained Accurately Sampling Technique for Simulators.

The paper's first-level sampler (Section IV-A).  Three steps:

1. **Boundary collection** — pick top-level cyclic program structures from
   dynamic profiling and discard those covering less than 1% of executed
   instructions; the iteration instances of the survivors become the
   (variable-length, coarse-grained) intervals.
2. **Metrics collection** — per iteration instance, collect the BBVs of its
   temporal sub-chunks, randomly project each to 15 dimensions, concatenate
   into a signature vector and normalise.
3. **Coarse-grained sampling** — k-means (``Kmax = 3`` by default) with BIC
   model selection classifies the instances into phases; the **earliest
   instance** of each phase becomes its coarse simulation point, weighted by
   the phase's share of instructions.

Selecting earliest instances (rather than centroid-nearest) is what puts the
last simulation point at a very early program position and collapses the
functional-simulation cost.  The rule is :meth:`Coasts._select`, the same
hook :class:`~repro.sampling.simpoint.SimPoint` subclasses override; step
3's span, sweep booking, points, plan and diagnostics go through
SimPoint's plan-assembly helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.bbv import concat_signatures
from ..analysis.bic import cluster_with_bic
from ..analysis.distance import earliest_member
from ..analysis.kmeans import cluster_quality
from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..engine.functional import FunctionalSimulator
from ..engine.profiles import CoarseIntervalProfile
from ..engine.trace import Trace
from ..errors import SamplingError
from ..obs import ObsContext
from ..obs.diag import MethodDiag
from .points import SamplingPlan
from .simpoint import book_sweep, phase_plan, phase_points, sampling_span


@dataclass(frozen=True)
class BoundaryInfo:
    """Outcome of boundary collection: which structures form intervals."""

    kept_loops: Tuple[int, ...]
    discarded_loops: Tuple[int, ...]
    bounds: np.ndarray  # (n_intervals, 2)
    #: Instruction coverage lost to the <1% rule (sum of the discarded
    #: structures' coverages) — a direct contributor to sampling error,
    #: surfaced by the accuracy diagnostics.
    discarded_coverage: float = 0.0

    @property
    def n_intervals(self) -> int:
        """Number of coarse intervals."""
        return len(self.bounds)


class Coasts:
    """The coarse-grained first-level sampler."""

    method_name = "coasts"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        #: Observability context: when present, sampling runs inside a
        #: ``sampling`` span and the clustering-quality diagnostics are
        #: attached to it as attributes, and the profiling passes and
        #: the k-means/BIC sweep book into its metrics.
        self.obs = obs
        #: Clustering-quality diagnostics of the most recent
        #: :meth:`sample`/:meth:`sample_profile` call (the harness fills
        #: in the error attribution after detail simulation).
        self.last_diagnostics: Optional[MethodDiag] = None

    # ------------------------------------------------------------------
    def functional(self, trace: Trace) -> FunctionalSimulator:
        """A functional simulator over *trace* whose passes book into
        the sampler's metrics (a private registry without *obs*)."""
        metrics = self.obs.metrics if self.obs is not None else None
        return FunctionalSimulator(trace, metrics=metrics)

    def collect_boundaries(self, trace: Trace) -> BoundaryInfo:
        """Step 1: choose top-level cyclic structures, filter by coverage."""
        structures = self.functional(trace).profile_structures()
        nest = trace.program.loops
        kept: List[int] = []
        discarded: List[int] = []
        for loop in nest.top_level:
            profile = structures[loop.loop_id]
            if profile.coverage >= self.config.min_structure_coverage:
                kept.append(loop.loop_id)
            else:
                discarded.append(loop.loop_id)
        if not kept:
            raise SamplingError(
                "no cyclic structure passes the coverage floor; cannot form "
                "coarse intervals"
            )
        bounds_list: List[np.ndarray] = []
        outer_id = trace.workload.outer_loop_id
        for loop_id in kept:
            if loop_id == outer_id:
                bounds_list.append(trace.outer_bounds())
            else:
                bounds_list.append(self._loop_instance_bounds(trace, loop_id))
        bounds = np.concatenate(bounds_list, axis=0)
        bounds = bounds[np.argsort(bounds[:, 0])]
        return BoundaryInfo(
            kept_loops=tuple(kept),
            discarded_loops=tuple(discarded),
            bounds=bounds,
            discarded_coverage=float(
                sum(structures[loop_id].coverage for loop_id in discarded)
            ),
        )

    @staticmethod
    def _loop_instance_bounds(trace: Trace, loop_id: int) -> np.ndarray:
        """Instance bounds of a non-outer top-level loop: each contiguous
        run of its segments is one instance."""
        spans: List[Tuple[int, int]] = []
        current: Tuple[int, int] | None = None
        loop_ids = trace.loop_id
        for index in range(trace.n_segments):
            if int(loop_ids[index]) == loop_id:
                start, end = trace.segment_span(index)
                if current is not None and start == current[1]:
                    current = (current[0], end)
                else:
                    if current is not None:
                        spans.append(current)
                    current = (start, end)
            elif current is not None:
                spans.append(current)
                current = None
        if current is not None:
            spans.append(current)
        if not spans:
            raise SamplingError(f"loop {loop_id} never executes")
        return np.array(spans, dtype=np.int64)

    # ------------------------------------------------------------------
    def profile(
        self, trace: Trace, boundaries: BoundaryInfo | None = None
    ) -> CoarseIntervalProfile:
        """Step 2: per-instance sub-chunk BBVs for the kept intervals."""
        boundaries = boundaries or self.collect_boundaries(trace)
        return self.functional(trace).profile_coarse_intervals(
            n_segments=self.config.signature_segments,
            bounds=boundaries.bounds,
        )

    def signatures(self, profile: CoarseIntervalProfile) -> np.ndarray:
        """Concatenated, normalised signature vectors of each instance."""
        return concat_signatures(
            profile.segment_bbvs,
            dim=self.config.projection_dim,
            seed=self.config.random_seed,
        )

    # ------------------------------------------------------------------
    def sample(self, trace: Trace, benchmark: str = "") -> SamplingPlan:
        """Run all three steps and return the coarse sampling plan."""
        boundaries = self.collect_boundaries(trace)
        profile = self.profile(trace, boundaries)
        return self.sample_profile(
            profile,
            benchmark=benchmark or trace.spec.name,
            total_instructions=trace.total_instructions,
            discarded_coverage=boundaries.discarded_coverage,
        )

    def sample_profile(
        self,
        profile: CoarseIntervalProfile,
        benchmark: str,
        total_instructions: int,
        discarded_coverage: float = 0.0,
    ) -> SamplingPlan:
        """Step 3 on an existing coarse profile."""
        with sampling_span(self.obs, self.method_name, benchmark) as span:
            signatures = self.signatures(profile)
            sweep = cluster_with_bic(
                signatures,
                kmax=self.config.coarse_kmax,
                seed=self.config.random_seed,
                n_seeds=self.config.kmeans_seeds,
                threshold=self.config.bic_threshold,
            )
            book_sweep(
                self.obs, self.method_name, sweep, self.config.kmeans_seeds
            )
            result = sweep.result
            labels = result.labels
            k = result.k
            picks = self._select(signatures, labels, result.centroids)

            insts = profile.instructions.astype(np.float64)
            covered = insts.sum()
            if covered <= 0:
                raise SamplingError("coarse profile covers no instructions")

            weights = np.array([
                float(insts[labels == phase].sum() / covered)
                for phase in range(k)
            ])
            quality = cluster_quality(signatures, result)
            plan, self.last_diagnostics = phase_plan(
                self.method_name, benchmark, profile,
                phase_points(profile, picks, weights),
                labels=labels,
                picks=picks,
                weights=weights,
                quality=quality,
                config=self.config,
                total_instructions=total_instructions,
                coverage_discarded=discarded_coverage,
            )
            if span is not None:
                span.set(
                    n_intervals=profile.n_instances,
                    n_clusters=k,
                    coverage_discarded=round(discarded_coverage, 6),
                    oversized_points=self.last_diagnostics.n_oversized,
                    mean_silhouette=round(quality.mean_silhouette, 4),
                )
            return plan

    def _select(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
    ) -> np.ndarray:
        """Representative choice: each phase's earliest instance."""
        return earliest_member(labels, len(centroids))
