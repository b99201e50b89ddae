"""k-means clustering (k-means++ initialisation, Lloyd iterations).

A from-scratch implementation so the library has no dependency beyond numpy;
SimPoint's phase classification is plain Euclidean k-means over projected
BBVs, run for several random seeds per k with the best inertia kept.

:func:`kmeans_sweep` clusters a whole list of ks (a BIC sweep) as one
computation; :func:`kmeans` is its one-k case.  It has a ``vectorized``
and a ``scalar`` implementation (:mod:`repro.backend`) that consume the
identical random stream and are bit-identical on labels, centroids,
inertia and ``inertia_history``.  The scalar twin seeds and iterates each
k on its own, unpruned.  The vectorized path seeds once per attempt at
the largest k (the seeds of a smaller k are a prefix), takes the first
assignment from the seeding pass, reuses an assignment while the
centroids come back unchanged, and skips the rows Hamerly's bounds
settle.  It only uses reductions whose rounding matches the scalar loop
(innermost-axis pairwise sums, index-order ``np.bincount``
accumulation), never BLAS products.  DESIGN decision 12 gives the
exactness argument for each reuse; ``tests/test_kmeans_sweep.py`` and
``tests/test_vectorized.py`` pin it; ``repro bench`` measures the
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, NamedTuple, Tuple

import numpy as np

from ..backend import get_backend
from ..errors import ClusteringError
from .distance import assign_points, squared_distances


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


class _Seeding(NamedTuple):
    """One k-means++ pass: the seeds and every point's distance to each."""

    centroids: np.ndarray  # (k, d)
    #: (n, k) squared point-seed distances, each the same innermost-axis
    #: reduction :func:`assign_points` applies to that pair.
    distances: np.ndarray
    #: Point-seed distances computed (a fill's repeated seed counts once).
    evaluated: int


def _kmeanspp_init(
    data: np.ndarray, k: int, rng: np.random.Generator, backend: str
) -> _Seeding:
    """k-means++ seeding.

    Both backends draw from *rng* identically (the seeding probabilities
    they compute are bit-identical), so the chosen seeds match too.  The
    draws are sequential, so the seeds of a smaller k from the same RNG
    state are a prefix of these.
    """
    n = len(data)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    distances = np.empty((n, k), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = _point_distances(data, centroids[0], backend)
    distances[:, 0] = closest
    computed = 1
    for i in range(1, k):
        total = float(np.sum(closest))
        if total <= 0:
            centroids[i:] = data[int(rng.integers(n))]
            distances[:, i:] = _point_distances(
                data, centroids[i], backend
            )[:, None]
            computed += 1
            break
        probabilities = closest / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = data[choice]
        distance = _point_distances(data, centroids[i], backend)
        distances[:, i] = distance
        computed += 1
        if backend == "scalar":
            for point in range(n):
                if distance[point] < closest[point]:
                    closest[point] = distance[point]
        else:
            np.minimum(closest, distance, out=closest)
    return _Seeding(centroids, distances, computed * n)


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray, backend: str
) -> Tuple[np.ndarray, float]:
    """One Lloyd update: member means (empty clusters keep their centroid).

    Returns ``(new_centroids, shift)`` with *shift* the largest squared
    centroid movement.  Member sums accumulate in point order on both
    backends (``np.bincount`` adds sequentially in index order), so the
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
    # One weighted bincount over (label, dim) bins: each bin adds its
    # points in row order from 0.0, as the scalar loop does.
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(
        bins, weights=data.ravel(), minlength=k * d
    ).reshape(k, d)
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


#: Relative margin of the settle test: a point keeps its label without a
#: full row only when its own distance is below its bound by this much,
#: far more than any rounding, so no settled point is in a tie.
_MARGIN = 1e-9
#: Relative shrink applied whenever a lower bound is set or decreased,
#: so it stays a bound on the exact distances despite rounding.
_SLACK = 1e-12


def _second_bounds(rows: np.ndarray) -> np.ndarray:
    """Lower bound on each point's distance to its second-nearest centre."""
    if rows.shape[1] < 2:
        return np.full(len(rows), np.inf)
    second = np.partition(rows, 1, axis=1)[:, 1]
    return np.sqrt(second) * (1.0 - _SLACK)


def _reassign(
    data: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    lower: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One exact assignment step that skips the rows its bounds settle.

    Every point's squared distance to its own centre is recomputed.  A
    point keeps its label when that distance is strictly below the larger
    of its lower bound and half its centre's nearest-centre distance
    (Hamerly), with :data:`_MARGIN` to spare; every other point gets its
    full row from :func:`squared_distances` and a fresh lower bound.
    Returns ``(labels, distances, evaluated)``; *lower* is updated in
    place.
    """
    n, k = len(data), len(centroids)
    own = ((data - centroids[labels]) ** 2).sum(axis=1)
    gaps = ((centroids[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(gaps, np.inf)
    bound = np.maximum(lower, 0.5 * np.sqrt(gaps.min(axis=1))[labels])
    settled = np.sqrt(own) * (1.0 + _MARGIN) < bound * (1.0 - _MARGIN)
    open_rows = np.flatnonzero(~settled)
    if len(open_rows):
        labels = labels.copy()
        rows = squared_distances(data[open_rows], centroids)
        picked = np.argmin(rows, axis=1)
        labels[open_rows] = picked
        own[open_rows] = rows[np.arange(len(open_rows)), picked]
        lower[open_rows] = _second_bounds(rows)
    return labels, own, n + len(open_rows) * k


def _shrink_bounds(
    lower: np.ndarray,
    labels: np.ndarray,
    old: np.ndarray,
    new: np.ndarray,
) -> np.ndarray:
    """Lower bounds after the centroids moved from *old* to *new*.

    A point's bound drops by the largest move among the centres other
    than its own.
    """
    if len(new) < 2:
        return lower
    moves = np.sqrt(((new - old) ** 2).sum(axis=1))
    second, first = np.argsort(moves)[-2:]
    step = np.where(labels == first, moves[second], moves[first])
    return lower * (1.0 - _SLACK) - step * (1.0 + _SLACK)


def _lloyd_bounded(
    data: np.ndarray,
    seeding: _Seeding,
    k: int,
    max_iterations: int,
    tolerance: float,
) -> Tuple[KMeansResult, int]:
    """Vectorized Lloyd from the first *k* seeds of *seeding*.

    Bit-identical to :func:`_lloyd`: the first assignment is read off the
    seeding pass's distances, an assignment is reused while the centroids
    come back unchanged (which also covers the final refresh), and the
    other steps go through :func:`_reassign`.  Returns ``(result,
    distances evaluated)``.
    """
    centroids = seeding.centroids[:k].copy()
    seeded = seeding.distances[:, :k]
    labels = np.argmin(seeded, axis=1)
    own = seeded[np.arange(len(data)), labels]
    lower = _second_bounds(seeded)
    current = True  # (labels, own) belong to these centroids
    previous = np.zeros(len(data), dtype=np.int64)
    evaluated = 0
    history = []
    for _ in range(max_iterations):
        if not current:
            labels, own, count = _reassign(data, centroids, labels, lower)
            evaluated += count
        history.append(float(np.sum(own)))
        moved = not np.array_equal(labels, previous)
        previous = labels
        updated, shift = _update_centroids(
            data, labels, centroids, "vectorized"
        )
        current = np.array_equal(updated, centroids)
        if not current:
            lower = _shrink_bounds(lower, labels, centroids, updated)
        centroids = updated
        if not moved and shift <= tolerance:
            break
    if not current:
        labels, own, count = _reassign(data, centroids, labels, lower)
        evaluated += count
    inertia = float(np.sum(own))
    history.append(inertia)
    result = KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        inertia_history=tuple(history),
    )
    return result, evaluated


@dataclass(frozen=True)
class KMeansSweep:
    """The best clustering per k of one sweep, and the work it took."""

    #: Best-of-seeds result per (clamped) k, in ascending k.
    results: Dict[int, KMeansResult]
    #: Lloyd iterations over every (k, seed) run.
    iterations: int
    #: Point-centre distances evaluated, seeding included.
    distance_evals: int


def kmeans_sweep(
    data: np.ndarray,
    ks: Iterable[int],
    seed: int = 0,
    n_seeds: int = 5,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> KMeansSweep:
    """Cluster *data* once per k in *ks*, keeping the best of *n_seeds*.

    Each k is clamped to the number of points; duplicates collapse.  Run
    *attempt* of every k seeds its RNG with ``seed + attempt * 7919``.
    The active backend (:mod:`repro.backend`) is read once, here.  The
    ``scalar`` twin clusters each k on its own; the ``vectorized`` path
    seeds once per attempt at the largest k and prunes the assignment
    steps with bounds, with bit-identical results (DESIGN decision 12).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ClusteringError("kmeans expects a non-empty 2-D array")
    if not np.isfinite(data).all():
        raise ClusteringError("kmeans expects finite data (NaN or inf found)")
    ks = list(ks)
    if not ks or min(ks) <= 0:
        raise ClusteringError("k must be positive")
    if n_seeds <= 0:
        raise ClusteringError("n_seeds must be positive")
    n = len(data)
    ks = sorted({min(k, n) for k in ks})
    chosen = get_backend()

    runs = []  # (k, result) per (k, attempt), attempts in order per k
    evaluated = 0
    if chosen == "scalar":
        for k in ks:
            for attempt in range(n_seeds):
                rng = np.random.default_rng(seed + attempt * 7919)
                seeding = _kmeanspp_init(data, k, rng, chosen)
                result = _lloyd(
                    data, seeding.centroids, max_iterations, tolerance,
                    chosen,
                )
                runs.append((k, result))
                evaluated += seeding.evaluated
                evaluated += n * k * (result.n_iterations + 1)
    else:
        for attempt in range(n_seeds):
            rng = np.random.default_rng(seed + attempt * 7919)
            seeding = _kmeanspp_init(data, ks[-1], rng, chosen)
            evaluated += seeding.evaluated
            for k in ks:
                result, count = _lloyd_bounded(
                    data, seeding, k, max_iterations, tolerance
                )
                runs.append((k, result))
                evaluated += count

    best: Dict[int, KMeansResult] = {}
    for k, result in runs:
        if k not in best or result.inertia < best[k].inertia:
            best[k] = result
    return KMeansSweep(
        results={k: best[k] for k in ks},
        iterations=sum(result.n_iterations for _, result in runs),
        distance_evals=evaluated,
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

    ``k`` is clamped to the number of points available; this is the
    one-k case of :func:`kmeans_sweep`.
    """
    sweep = kmeans_sweep(
        data, [k], seed=seed, n_seeds=n_seeds,
        max_iterations=max_iterations, tolerance=tolerance,
    )
    (result,) = sweep.results.values()
    return result
