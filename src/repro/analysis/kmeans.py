"""k-means clustering (k-means++ initialisation, Lloyd iterations).

A from-scratch implementation so the library has no dependency beyond numpy;
SimPoint's phase classification is plain Euclidean k-means over projected
BBVs, run for several random seeds per k with the best inertia kept.

Both hot kernels — the k-means++ seeding sweep and the batched Lloyd
iteration — exist in a ``vectorized`` and a ``scalar`` implementation
(:mod:`repro.backend`).  The pairs consume the identical random
stream and are bit-identical on labels, centroids and inertia: the
batched path only uses reductions whose rounding matches the scalar loop
(innermost-axis pairwise sums, index-order ``np.add.at`` accumulation),
never BLAS products.  ``tests/test_vectorized.py`` pins this across a
seed x shape matrix; ``repro bench`` measures the resulting speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..backend import get_backend
from ..errors import ClusteringError
from .distance import assign_points


@dataclass(frozen=True)
class KMeansResult:
    """One clustering: centroids, per-point labels, and total inertia."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray     # (n,)
    inertia: float
    #: Assignment-step inertia per Lloyd iteration (final refresh last).
    #: Exactly non-increasing step-to-step up to centroid-update rounding;
    #: the property tests pin this.
    inertia_history: Tuple[float, ...] = field(default=(), compare=False)

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centroids)

    @property
    def n_iterations(self) -> int:
        """Lloyd iterations executed (0 for an empty history)."""
        return max(0, len(self.inertia_history) - 1)

    def cluster_sizes(self) -> np.ndarray:
        """Points per cluster."""
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class ClusterQuality:
    """Per-cluster quality statistics of one clustering.

    The SimPoint-style predictors of sampling error: how tight each
    cluster is (intra-cluster variance), how well separated it is from
    the others (simplified, centroid-based silhouette — distances to
    centroids instead of all-pairs member distances, so it stays O(n·k)),
    and how far each member sits from its own centroid (used to flag
    representatives that are poor stand-ins for their phase).
    """

    sizes: np.ndarray              # (k,) members per cluster
    variances: np.ndarray          # (k,) mean squared member->centroid dist
    silhouettes: np.ndarray        # (k,) mean member silhouette (0 if k == 1)
    member_distances: np.ndarray   # (n,) Euclidean dist to own centroid
    member_silhouettes: np.ndarray  # (n,) simplified silhouette per member

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.sizes)

    @property
    def mean_silhouette(self) -> float:
        """Whole-clustering mean silhouette."""
        return float(self.member_silhouettes.mean())


def cluster_quality(data: np.ndarray, result: KMeansResult) -> ClusterQuality:
    """Quality statistics of *result* on *data*.

    *data* must be the points the labels refer to (``result.labels``
    indexes its rows).  The simplified silhouette of point ``i`` is
    ``(b_i - a_i) / max(a_i, b_i)`` with ``a_i`` the distance to its own
    centroid and ``b_i`` the distance to the nearest other centroid;
    with a single cluster every silhouette is 0 by convention.
    """
    from .distance import squared_distances

    data = np.asarray(data, dtype=np.float64)
    labels = result.labels
    if len(data) != len(labels):
        raise ClusteringError(
            f"data rows ({len(data)}) do not match labels ({len(labels)})"
        )
    k = result.k
    squared = squared_distances(data, result.centroids)
    own_sq = squared[np.arange(len(data)), labels]
    member_distances = np.sqrt(own_sq)

    sizes = np.bincount(labels, minlength=k)
    variances = np.zeros(k, dtype=np.float64)
    np.add.at(variances, labels, own_sq)
    occupied = sizes > 0
    variances[occupied] /= sizes[occupied]

    if k == 1:
        member_silhouettes = np.zeros(len(data), dtype=np.float64)
    else:
        others = np.sqrt(squared)
        others[np.arange(len(data)), labels] = np.inf
        nearest_other = others.min(axis=1)
        denominator = np.maximum(member_distances, nearest_other)
        member_silhouettes = np.where(
            denominator > 0,
            (nearest_other - member_distances)
            / np.where(denominator > 0, denominator, 1.0),
            0.0,
        )
    silhouettes = np.zeros(k, dtype=np.float64)
    np.add.at(silhouettes, labels, member_silhouettes)
    silhouettes[occupied] /= sizes[occupied]
    return ClusterQuality(
        sizes=sizes,
        variances=variances,
        silhouettes=silhouettes,
        member_distances=member_distances,
        member_silhouettes=member_silhouettes,
    )


def _point_distances(
    data: np.ndarray, center: np.ndarray, backend: str
) -> np.ndarray:
    """Squared distance of every row of *data* to one *center*."""
    if backend == "scalar":
        return np.array(
            [np.sum((data[i] - center) ** 2) for i in range(len(data))],
            dtype=np.float64,
        )
    return ((data - center) ** 2).sum(axis=1)


def _kmeanspp_init(
    data: np.ndarray, k: int, rng: np.random.Generator, backend: str
) -> np.ndarray:
    """k-means++ seeding.

    Both backends draw from *rng* identically (the seeding probabilities
    they compute are bit-identical), so the chosen seeds match too.
    """
    n = len(data)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = _point_distances(data, centroids[0], backend)
    for i in range(1, k):
        total = float(np.sum(closest))
        if total <= 0:
            centroids[i:] = data[int(rng.integers(n))]
            break
        probabilities = closest / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = data[choice]
        distance = _point_distances(data, centroids[i], backend)
        if backend == "scalar":
            for point in range(n):
                if distance[point] < closest[point]:
                    closest[point] = distance[point]
        else:
            np.minimum(closest, distance, out=closest)
    return centroids


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray, backend: str
) -> Tuple[np.ndarray, float]:
    """One Lloyd update: member means (empty clusters keep their centroid).

    Returns ``(new_centroids, shift)`` with *shift* the largest squared
    centroid movement.  Member sums accumulate in point order on both
    backends (``np.add.at`` adds sequentially in index order), so the
    means — and everything downstream — are bit-identical.
    """
    k, d = centroids.shape
    new_centroids = centroids.copy()
    if backend == "scalar":
        sums = np.zeros((k, d), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        for i in range(len(data)):
            sums[labels[i]] += data[i]
            counts[labels[i]] += 1
        shift = 0.0
        for j in range(k):
            if counts[j]:
                candidate = sums[j] / counts[j]
                shift = max(shift, float(np.sum((candidate - centroids[j]) ** 2)))
                new_centroids[j] = candidate
        return new_centroids, shift
    sums = np.zeros((k, d), dtype=np.float64)
    np.add.at(sums, labels, data)
    counts = np.bincount(labels, minlength=k)
    occupied = counts > 0
    new_centroids[occupied] = sums[occupied] / counts[occupied, None]
    moves = ((new_centroids - centroids) ** 2).sum(axis=1)
    return new_centroids, float(moves.max(initial=0.0))


def _lloyd(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
    backend: str,
) -> KMeansResult:
    """Lloyd iterations from the given initial centroids."""
    labels = np.zeros(len(data), dtype=np.int64)
    history = []
    for _ in range(max_iterations):
        new_labels, distances = assign_points(data, centroids)
        history.append(float(np.sum(distances)))
        moved = not np.array_equal(new_labels, labels)
        labels = new_labels
        centroids, shift = _update_centroids(data, labels, centroids, backend)
        if not moved and shift <= tolerance:
            break
    # Final refresh against the converged centroids, so the reported
    # labels/inertia are consistent with the reported centroids even
    # when the loop stopped at max_iterations.
    labels, distances = assign_points(data, centroids)
    inertia = float(np.sum(distances))
    history.append(inertia)
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        inertia_history=tuple(history),
    )


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    n_seeds: int = 5,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> KMeansResult:
    """Cluster *data* into *k* clusters, keeping the best of *n_seeds* runs.

    ``k`` is clamped to the number of points available.  The active
    backend (:mod:`repro.backend`) is read once, here, and passed to the
    private seeding and update helpers.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ClusteringError("kmeans expects a non-empty 2-D array")
    if k <= 0:
        raise ClusteringError("k must be positive")
    if n_seeds <= 0:
        raise ClusteringError("n_seeds must be positive")
    k = min(k, len(data))
    chosen = get_backend()

    best: KMeansResult | None = None
    for attempt in range(n_seeds):
        rng = np.random.default_rng(seed + attempt * 7919)
        centroids = _kmeanspp_init(data, k, rng, chosen)
        result = _lloyd(data, centroids, max_iterations, tolerance, chosen)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
