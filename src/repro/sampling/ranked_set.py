"""Ranked-set sampling with repeated subsampling (see PAPERS.md).

Ranked-set sampling (RSS) exploits a *cheap* ranking signal to spread an
expensive measurement budget evenly over the distribution of program
behaviour.  Here the ranking proxy is the first principal component of
the normalised per-interval BBVs — already available from the functional
profile, no detailed simulation needed — which orders intervals along
the program's dominant axis of phase behaviour (the paper's Figure 1
uses exactly this curve to visualise phases).

One cycle draws ``m = ranked_set_size`` random candidate sets of ``m``
intervals each; the ``j``-th set contributes only its ``j``-th
order statistic (by proxy rank), so each cycle yields one measurement
per rank stratum.  ``r = ranked_set_cycles`` cycles are averaged —
"repeated subsampling" — giving ``m * r`` detailed intervals spread over
the proxy distribution.

The estimator weights rank stratum ``j`` by the instruction share
``W_j`` of its proxy-quantile bucket and averages the ``r`` picks within
it (each selection carries weight ``W_j / r``; duplicate picks within a
stratum merge their weights).  Phases are the rank strata, so the
per-phase error attribution sums exactly like every other method's: the
plan and its diagnostics come from SimPoint's shared
:func:`~repro.sampling.simpoint.phase_plan`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..analysis.bbv import normalize_rows
from ..analysis.kmeans import KMeansResult, cluster_quality
from ..analysis.pca import first_component
from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..errors import SamplingError
from ..obs import ObsContext
from ..obs.diag import MethodDiag
from .points import SamplingPlan, SimulationPoint
from .simpoint import phase_plan, sampling_span


class RankedSetSampler:
    """RSS over fixed-length intervals, ranked by the first BBV PC."""

    method_name = "ranked_set"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        self.interval_size = config.fine_interval_size
        self.obs = obs
        #: Clustering-style diagnostics of the most recent :meth:`sample`
        #: call (rank strata play the role of phases).
        self.last_diagnostics: Optional[MethodDiag] = None

    # ------------------------------------------------------------------
    def sample(self, profile, benchmark: str = "") -> SamplingPlan:
        """Build the ranked-set plan from a fixed-interval profile."""
        if profile.interval_size != self.interval_size:
            raise SamplingError(
                f"profile interval size {profile.interval_size} != sampler's "
                f"{self.interval_size}"
            )
        n = profile.n_intervals
        insts = profile.instructions.astype(np.float64)
        total = float(insts.sum())
        if total <= 0:
            raise SamplingError("no instructions in profile")

        with sampling_span(self.obs, self.method_name, benchmark) as span:
            proxy = self._proxy(profile)
            m = min(self.config.ranked_set_size, n)
            r = self.config.ranked_set_cycles

            # Rank strata: m proxy-quantile buckets (every bucket
            # non-empty because m <= n).  Stable sort keeps ties
            # deterministic.
            order = np.argsort(proxy, kind="stable")
            bucket_labels = np.empty(n, dtype=np.int64)
            bucket_means = np.zeros(m, dtype=np.float64)
            stratum_weights = np.zeros(m, dtype=np.float64)
            for j in range(m):
                members = order[(j * n) // m:((j + 1) * n) // m]
                bucket_labels[members] = j
                bucket_means[j] = float(proxy[members].mean())
                stratum_weights[j] = float(insts[members].sum()) / total

            # Repeated subsampling: r cycles, each contributing one
            # order statistic per rank.
            rng = np.random.default_rng(self.config.random_seed)
            selections: List[List[int]] = [[] for _ in range(m)]
            for _cycle in range(r):
                for j in range(m):
                    draw = rng.choice(n, size=m, replace=False)
                    ranked = draw[np.argsort(proxy[draw], kind="stable")]
                    selections[j].append(int(ranked[j]))

            points: List[SimulationPoint] = []
            picks = np.full(m, -1, dtype=np.int64)
            for j in range(m):
                merged: Dict[int, float] = {}
                for index in selections[j]:
                    merged[index] = (
                        merged.get(index, 0.0) + stratum_weights[j] / r
                    )
                for index in sorted(merged):
                    points.append(SimulationPoint(
                        start=int(profile.starts[index]),
                        end=profile.end_of(index),
                        weight=merged[index],
                        phase=j,
                        interval_index=index,
                    ))
                # Reporting representative: the selection whose proxy is
                # nearest its stratum mean (the estimate averages all).
                gaps = [abs(proxy[i] - bucket_means[j]) for i in selections[j]]
                picks[j] = selections[j][int(np.argmin(gaps))]

            quality = cluster_quality(
                proxy.reshape(-1, 1),
                KMeansResult(
                    centroids=bucket_means.reshape(-1, 1),
                    labels=bucket_labels,
                    inertia=0.0,
                ),
            )
            plan, self.last_diagnostics = phase_plan(
                self.method_name, benchmark, profile, points,
                labels=bucket_labels,
                picks=picks,
                weights=stratum_weights,
                quality=quality,
                config=self.config,
                total_instructions=profile.total_instructions,
                origin=int(profile.starts[0]),
            )
            if span is not None:
                span.set(
                    n_intervals=n,
                    set_size=m,
                    cycles=r,
                    mean_silhouette=round(quality.mean_silhouette, 4),
                )
            return plan

    # ------------------------------------------------------------------
    @staticmethod
    def _proxy(profile) -> np.ndarray:
        """Cheap ranking metric: first PC of the normalised BBVs."""
        if profile.n_intervals < 2:
            return np.zeros(profile.n_intervals, dtype=np.float64)
        return first_component(normalize_rows(profile.bbv))
