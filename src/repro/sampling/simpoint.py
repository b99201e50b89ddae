"""Fixed-length SimPoint (Sherwood et al., ASPLOS 2002) — the baseline.

Pipeline, faithful to the SimPoint release the paper compares against:

1. split execution into fixed-length intervals (10M instructions at paper
   scale) and collect per-interval BBVs;
2. normalise each BBV and randomly project it to 15 dimensions;
3. run k-means for k = 1..Kmax (default 30), several seeds each, score with
   BIC and keep the smallest k reaching 90% of the BIC range;
4. pick, per cluster, the interval nearest the centroid as its simulation
   point, weighted by the cluster's share of executed instructions.

Like the SimPoint tool, clustering optionally runs on a random sub-sample of
intervals (all intervals are then assigned to the nearest centroid), which
bounds clustering cost on long programs.

Steps 2 and 3 produce a :class:`FineClustering`.  EarlySP and stratified
sampling derive their plans from the very same clustering, so the
registry's :class:`~repro.samplers.PlanContext` builds it once per
profile and hands it to every fine sampler (:meth:`SimPoint.sample`'s
*context*).

Step 4's tail is every sampler's: the module's plan-assembly helpers
(:func:`sampling_span`, :func:`book_sweep`, :func:`phase_points` and
:func:`phase_plan`) open the ``sampling`` span, book a sweep's work,
turn per-phase picks into points and build the plan with its
:class:`~repro.obs.diag.MethodDiag`.  COASTS and ranked-set sampling
assemble their plans through them too.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.bbv import normalize_rows
from ..analysis.bic import cluster_with_bic
from ..analysis.distance import assign_points, nearest_to_centroid
from ..analysis.kmeans import ClusterQuality, KMeansResult, cluster_quality
from ..analysis.metrics import metric_matrix
from ..analysis.projection import RandomProjection
from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..engine.profiles import FixedIntervalProfile
from ..errors import SamplingError
from ..isa.program import Program
from ..obs import (
    CLUSTER_SWEEPS,
    DISTANCE_EVALS,
    KMEANS_ITERATIONS,
    KMEANS_RUNS,
    ObsContext,
)
from ..obs.diag import MethodDiag, build_method_diag
from .points import SamplingPlan, SimulationPoint

#: Clustering runs on at most this many intervals (SimPoint-style sampling).
DEFAULT_MAX_CLUSTER_SAMPLES = 4000


@dataclass(frozen=True, eq=False)
class FineClustering:
    """One projected k-means/BIC clustering of a fixed-interval profile.

    Besides the clustering itself it holds the views every fine sampler
    derives from it identically, so samplers sharing one differ only in
    how they pick points.
    """

    profile: FixedIntervalProfile
    #: Normalised, randomly projected per-interval features.
    features: np.ndarray
    #: Phase of every interval (clustering may have fitted a sub-sample;
    #: every interval is assigned to its nearest centroid).
    labels: np.ndarray
    centroids: np.ndarray
    k: int
    #: Per-phase share of the profile's executed instructions.
    weights: np.ndarray
    #: Quality statistics over the full assignment.
    quality: ClusterQuality


def sampling_span(
    obs: Optional[ObsContext], method: str, benchmark: str
) -> ContextManager:
    """The ``sampling`` span of one plan (a null context without *obs*)."""
    if obs is None:
        return nullcontext()
    return obs.tracer.span("sampling", method=method, benchmark=benchmark)


def book_sweep(
    obs: Optional[ObsContext], method: str, sweep, seeds: int
) -> None:
    """Book one k-means/BIC *sweep*'s work under *method*."""
    if obs is None:
        return
    metrics = obs.metrics
    metrics.counter(CLUSTER_SWEEPS, method=method).inc()
    metrics.counter(KMEANS_RUNS, method=method).inc(len(sweep.scores) * seeds)
    metrics.counter(KMEANS_ITERATIONS, method=method).inc(sweep.iterations)
    metrics.counter(DISTANCE_EVALS, method=method).inc(sweep.distance_evals)


def phase_points(
    profile, picks: Sequence[int], weights: Sequence[float]
) -> List[SimulationPoint]:
    """One point per phase at its representative interval ``picks[p]``
    (``-1`` marks an empty phase, which gets none), weighted
    ``weights[p]``."""
    points: List[SimulationPoint] = []
    for phase, pick in enumerate(picks):
        pick = int(pick)
        if pick < 0:
            continue
        points.append(
            SimulationPoint(
                start=int(profile.starts[pick]),
                end=profile.end_of(pick),
                weight=float(weights[phase]),
                phase=phase,
                interval_index=pick,
            )
        )
    return points


def phase_plan(
    method: str,
    benchmark: str,
    profile,
    points: Sequence[SimulationPoint],
    labels: np.ndarray,
    picks: Sequence[int],
    weights: Sequence[float],
    quality,
    config: SamplingConfig,
    total_instructions: int,
    origin: int = 0,
    coverage_discarded: float = 0.0,
) -> Tuple[SamplingPlan, MethodDiag]:
    """The plan of *points* and the diagnostics of its clustering.

    *profile* (fixed or coarse) holds the intervals *labels* assigns to
    the ``len(picks)`` phases; *picks* are the per-phase reporting
    representatives and *weights* the phase shares.
    """
    bounds = [
        (int(profile.starts[i]), profile.end_of(i))
        for i in range(len(profile.starts))
    ]
    diag = build_method_diag(
        method=method,
        benchmark=benchmark,
        labels=labels,
        picks=picks,
        weights=weights,
        bounds=bounds,
        instructions=profile.instructions,
        quality=quality,
        resample_threshold=config.resample_threshold,
        coverage_discarded=coverage_discarded,
    )
    plan = SamplingPlan(
        method=method,
        benchmark=benchmark,
        points=tuple(sorted(points, key=lambda p: p.start)),
        total_instructions=total_instructions,
        n_clusters=len(picks),
        origin=origin,
    )
    return plan, diag


class SimPoint:
    """The fixed-length SimPoint baseline sampler.

    :meth:`cluster` is the projection and the k-means/BIC sweep;
    :meth:`sample` turns a clustering into a plan through :meth:`_select`
    (subclasses change the representative rule or, like stratified
    sampling, the whole point choice in :meth:`_points`).  Samplers with
    equal :attr:`clustering_key` cluster one profile identically.
    """

    method_name = "simpoint"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        interval_size: Optional[int] = None,
        kmax: Optional[int] = None,
        max_cluster_samples: int = DEFAULT_MAX_CLUSTER_SAMPLES,
        metric: str = "bbv",
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        self.interval_size = interval_size or config.fine_interval_size
        self.kmax = kmax or config.fine_kmax
        if max_cluster_samples < 2:
            raise SamplingError("max_cluster_samples must be >= 2")
        self.max_cluster_samples = max_cluster_samples
        #: Phase metric: "bbv" (default), "loop_frequency" or "working_set"
        #: (the Section II alternatives; non-BBV metrics need `program`).
        self.metric = metric
        #: Observability context: when present, sampling runs inside a
        #: ``sampling`` span carrying clustering-quality attributes.
        self.obs = obs
        #: Clustering-quality diagnostics of the most recent
        #: :meth:`sample` call (EarlySP inherits this — only the
        #: representative-selection rule differs).
        self.last_diagnostics: Optional[MethodDiag] = None

    # ------------------------------------------------------------------
    @property
    def clustering_key(self) -> Tuple:
        """Every input that changes :meth:`cluster` on a given profile.

        The metric, interval size, kmax, sub-sample bound and the whole
        sampling config.  A subclass that changes :meth:`_project` or
        :meth:`_cluster` must extend the key.
        """
        return (
            self.metric, self.interval_size, self.kmax,
            self.max_cluster_samples, self.config,
        )

    def cluster(
        self,
        profile: FixedIntervalProfile,
        program: Optional[Program] = None,
    ) -> FineClustering:
        """Project and cluster *profile* (steps 2 and 3)."""
        self._check_profile(profile)
        features = self._project(profile, program)
        labels, centroids, k = self._cluster(features)
        # The inertia slot is unused by cluster_quality, so a zero keeps
        # this a view rather than a re-clustering.
        quality = cluster_quality(
            features,
            KMeansResult(centroids=centroids, labels=labels, inertia=0.0),
        )
        return FineClustering(
            profile=profile,
            features=features,
            labels=labels,
            centroids=centroids,
            k=k,
            weights=self._weights(profile, labels, k),
            quality=quality,
        )

    def sample(
        self,
        profile: FixedIntervalProfile,
        benchmark: str = "",
        program: Optional[Program] = None,
        context=None,
    ) -> SamplingPlan:
        """Select simulation points from a fixed-interval profile.

        *program* is required for the non-BBV metrics, which need the loop
        nest / region table to fold the profile.  With *context* (a
        :class:`~repro.samplers.PlanContext` whose fine profile is
        *profile*), the clustering is the context's memoised one, folded
        with its trace's program, rather than a fresh sweep.
        """
        self._check_profile(profile)
        with sampling_span(self.obs, self.method_name, benchmark) as span:
            if context is None:
                clustering = self.cluster(profile, program)
            else:
                clustering = context.fine_clustering(self)
                if clustering.profile is not profile:
                    raise SamplingError(
                        "profile is not the plan context's fine profile"
                    )
            points, picks = self._points(clustering)
            plan, self.last_diagnostics = phase_plan(
                self.method_name, benchmark, profile, points,
                labels=clustering.labels,
                picks=picks,
                weights=clustering.weights,
                quality=clustering.quality,
                config=self.config,
                total_instructions=profile.total_instructions,
                origin=int(profile.starts[0]),
            )
            if span is not None:
                span.set(
                    n_intervals=profile.n_intervals,
                    n_clusters=clustering.k,
                    **self._span_attrs(points),
                    mean_silhouette=round(
                        clustering.quality.mean_silhouette, 4
                    ),
                )
            return plan

    def _points(
        self, clustering: FineClustering
    ) -> Tuple[List[SimulationPoint], np.ndarray]:
        """One point per phase at its :meth:`_select` representative.

        Returns the points and the per-phase representative picks
        (``-1`` for an empty phase) the diagnostics report.
        """
        picks = self._select(
            clustering.features, clustering.labels, clustering.centroids
        )
        return (
            phase_points(clustering.profile, picks, clustering.weights),
            picks,
        )

    def _span_attrs(self, points: List[SimulationPoint]) -> dict:
        """Method-specific attributes of the ``sampling`` span."""
        return {"oversized_points": self.last_diagnostics.n_oversized}

    def _check_profile(self, profile: FixedIntervalProfile) -> None:
        if profile.interval_size != self.interval_size:
            raise SamplingError(
                f"profile interval size {profile.interval_size} != sampler's "
                f"{self.interval_size}"
            )

    # ------------------------------------------------------------------
    def _project(
        self,
        profile: FixedIntervalProfile,
        program: Optional[Program] = None,
    ) -> np.ndarray:
        if self.metric == "bbv":
            data = profile.bbv
        else:
            if program is None:
                raise SamplingError(
                    f"metric {self.metric!r} requires the program"
                )
            data = metric_matrix(self.metric, profile, program)
        normalized = normalize_rows(data)
        projection = RandomProjection(
            data.shape[1],
            min(self.config.projection_dim, data.shape[1]),
            seed=self.config.random_seed,
        )
        return projection.project(normalized)

    def _cluster(self, features: np.ndarray):
        n = len(features)
        rng = np.random.default_rng(self.config.random_seed)
        if n > self.max_cluster_samples:
            chosen = np.sort(
                rng.choice(n, size=self.max_cluster_samples, replace=False)
            )
            fit_data = features[chosen]
        else:
            fit_data = features
        sweep = cluster_with_bic(
            fit_data,
            kmax=self.kmax,
            seed=self.config.random_seed,
            n_seeds=self.config.kmeans_seeds,
            threshold=self.config.bic_threshold,
        )
        book_sweep(
            self.obs, self.method_name, sweep, self.config.kmeans_seeds
        )
        result = sweep.result
        centroids = result.centroids
        labels, _ = assign_points(features, centroids)
        return labels, centroids, result.k

    @staticmethod
    def _weights(
        profile: FixedIntervalProfile, labels: np.ndarray, k: int
    ) -> np.ndarray:
        weights = np.zeros(k, dtype=np.float64)
        insts = profile.instructions.astype(np.float64)
        for phase in range(k):
            weights[phase] = insts[labels == phase].sum()
        total = weights.sum()
        if total <= 0:
            raise SamplingError("no instructions in profile")
        return weights / total

    def _select(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
    ) -> np.ndarray:
        """Representative choice: interval nearest each centroid."""
        return nearest_to_centroid(features, labels, centroids)
