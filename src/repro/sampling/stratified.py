"""Two-phase stratified sampling (Ekman & Stenström-style, see PAPERS.md).

Phase one stratifies the fixed-length intervals by BBV cluster (the same
projection + k-means/BIC machinery as SimPoint, so the strata *are* the
program's phases).  Phase two allocates a detailed-simulation budget of
``stratified_budget`` intervals across the strata proportionally to
``N_h * sqrt(S_h)`` — instruction mass times within-stratum standard
deviation, the Neyman-optimal allocation — and draws each stratum's
sample uniformly without replacement.

The estimator is Horvitz–Thompson style: every sampled interval ``i`` of
stratum ``h`` carries weight ``W_h * inst_i / sum_sample(inst)`` — the
stratum's instruction share, self-normalised over the drawn sample — so
the plan's weighted metric mean is the stratified estimator and the
per-phase error attribution (``est − base = Σ c_p + residual``)
decomposes over strata exactly as for the paper's methods.

Versus SimPoint (one centroid-nearest representative per cluster),
stratified sampling spends *more* detailed intervals inside
high-variance phases, trading detailed-simulation time for robustness
against a single unrepresentative pick.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import SamplingError
from .points import SimulationPoint
from .simpoint import FineClustering, SimPoint


class StratifiedSampler(SimPoint):
    """BBV-cluster strata with variance-proportional budget allocation.

    The strata are :meth:`SimPoint.cluster`'s phases, so inside a
    :class:`~repro.samplers.PlanContext` this sampler reuses the
    clustering SimPoint built; only the point choice differs.
    """

    method_name = "stratified"

    # ------------------------------------------------------------------
    def _points(
        self, clustering: FineClustering
    ) -> Tuple[List[SimulationPoint], np.ndarray]:
        """Draw each stratum's allocated sample (phase two)."""
        profile = clustering.profile
        labels, weights, k = clustering.labels, clustering.weights, clustering.k
        insts = profile.instructions.astype(np.float64)
        allocation = self._allocate(labels, weights, clustering.quality, k)

        rng = np.random.default_rng(self.config.random_seed)
        points: List[SimulationPoint] = []
        picks = np.full(k, -1, dtype=np.int64)
        for phase in range(k):
            quota = allocation.get(phase, 0)
            if quota <= 0:
                continue
            members = np.flatnonzero(labels == phase)
            chosen = np.sort(rng.choice(members, size=quota, replace=False))
            sample_inst = float(insts[chosen].sum())
            for index in chosen:
                index = int(index)
                share = (
                    insts[index] / sample_inst if sample_inst > 0
                    else 1.0 / len(chosen)
                )
                points.append(SimulationPoint(
                    start=int(profile.starts[index]),
                    end=profile.end_of(index),
                    weight=float(weights[phase]) * share,
                    phase=phase,
                    interval_index=index,
                ))
            # Reporting representative: the sampled member closest to
            # its centroid (the estimate itself uses every sample).
            distances = clustering.quality.member_distances[chosen]
            picks[phase] = int(chosen[int(np.argmin(distances))])
        return points, picks

    def _span_attrs(self, points: List[SimulationPoint]) -> dict:
        return {"budget": len(points)}

    # ------------------------------------------------------------------
    def _allocate(
        self,
        labels: np.ndarray,
        weights: np.ndarray,
        quality,
        k: int,
    ) -> Dict[int, int]:
        """Split the detailed budget over strata, Neyman style.

        Every non-empty stratum gets at least one interval; the rest of
        the budget goes greedily to the stratum with the largest
        ``score / alloc`` ratio (score ``W_h * sqrt(variance_h)``, the
        instruction-mass proxy for ``N_h * S_h``), never exceeding the
        stratum's member count.  Deterministic: ties break on the lowest
        stratum index.
        """
        sizes = np.array(
            [int(np.count_nonzero(labels == h)) for h in range(k)]
        )
        nonempty = [h for h in range(k) if sizes[h] > 0]
        if not nonempty:
            raise SamplingError("stratification produced no members")
        n = int(sizes.sum())
        budget = max(min(self.config.stratified_budget, n), len(nonempty))

        scores = np.array([
            float(weights[h]) * float(np.sqrt(quality.variances[h]))
            for h in range(k)
        ])
        if not np.any(scores[nonempty] > 0):
            # Zero within-stratum variance everywhere: fall back to
            # allocation proportional to instruction mass.
            scores = np.asarray(weights, dtype=np.float64).copy()

        allocation = {h: 1 for h in nonempty}
        remaining = budget - len(nonempty)
        while remaining > 0:
            best = -1
            best_ratio = -1.0
            for h in nonempty:
                if allocation[h] >= sizes[h]:
                    continue
                ratio = scores[h] / allocation[h]
                if ratio > best_ratio:
                    best, best_ratio = h, ratio
            if best < 0:
                break
            allocation[best] += 1
            remaining -= 1
        return allocation
