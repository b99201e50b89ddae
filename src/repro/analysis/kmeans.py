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
settle.  It runs every (attempt, k) of a group of neighbouring ks in
lockstep (:class:`_Lockstep`): one array operation per step serves every
unfinished run, centroids padded to the group's largest k.  It only uses
reductions whose rounding matches the scalar loop (innermost-axis
pairwise sums, index-order ``np.bincount`` accumulation), never BLAS
products.  DESIGN decision 12 gives the exactness argument for each
reuse; ``tests/test_kmeans_sweep.py``, ``tests/test_kmeans_snapshot.py``
and ``tests/test_vectorized.py`` pin it; ``repro bench`` measures the
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

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
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, float]:
    """One scalar Lloyd update: member means (empty clusters keep their
    centroid).

    Returns ``(new_centroids, shift)`` with *shift* the largest squared
    centroid movement.  Member sums accumulate in point order, as the
    vectorized path's ``np.bincount`` adds them, so the means — and
    everything downstream — are bit-identical.
    """
    k, d = centroids.shape
    new_centroids = centroids.copy()
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


def _lloyd(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> KMeansResult:
    """The scalar twin's Lloyd iterations from the given initial
    centroids."""
    labels = np.zeros(len(data), dtype=np.int64)
    history = []
    for _ in range(max_iterations):
        new_labels, distances = assign_points(data, centroids)
        history.append(float(np.sum(distances)))
        moved = not np.array_equal(new_labels, labels)
        labels = new_labels
        centroids, shift = _update_centroids(data, labels, centroids)
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
#: Consecutive ks of a sweep whose runs advance in lockstep.  Padding a
#: small k to a large one costs more than the batch saves, and one batch
#: per k leaves most of the per-call overhead in place.  Results are
#: identical for any positive value.
_GROUP_KS = 5
#: Upper bound on one lockstep broadcast temporary, in float64 elements
#: (256 KiB), which keeps the batches' memory near the per-run code's.
#: Results are identical for any positive value.
_STEP_ELEMENTS = 32 * 1024


def _chunks(count: int, size: int) -> Iterator[slice]:
    """Slices of ``range(count)`` whose items, *size* elements each, fit
    :data:`_STEP_ELEMENTS` (one item at least)."""
    step = max(1, _STEP_ELEMENTS // size)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _reset_bounds(rows: np.ndarray) -> np.ndarray:
    """Lower bound on each row's distance to its second-nearest centre.

    *rows* holds squared distances on its last axis, padded columns at
    ``+inf``, so the second order statistic is a real centre's (or
    ``inf`` for a run of k = 1).
    """
    if rows.shape[-1] < 2:
        return np.full(rows.shape[:-1], np.inf)
    second = np.partition(rows, 1, axis=-1)[..., 1]
    return np.sqrt(second) * (1.0 - _SLACK)


def _square_sums(delta: np.ndarray) -> np.ndarray:
    """``(delta ** 2).sum(axis=-1)``, squaring the temporary *delta* in
    place.

    Callers may pass centre-minus-point differences: negation is exact,
    so their squares equal those of point-minus-centre bit for bit.
    """
    np.multiply(delta, delta, out=delta)
    return delta.sum(axis=-1)


class _Lockstep:
    """Bound-pruned Lloyd runs of a group of ks, advanced together.

    Run ``r`` clusters with the first ``ks[r]`` seeds of its attempt's
    seeding.  Centroids are padded to the group's largest k; wherever
    distances are compared the padded columns read ``+inf``, and an
    update leaves them where they are (they have no members).  Each step
    gives every unfinished run the values its own Lloyd loop would, so
    each run is bit-identical to the scalar twin's: the first assignment
    is read off the seeding pass, an assignment is reused while the
    centroids come back unchanged (which also covers the final refresh),
    and the other assignment steps skip the rows Hamerly's bounds settle.
    """

    def __init__(
        self, data: np.ndarray, seedings: List[_Seeding], ks: List[int]
    ) -> None:
        n, width = len(data), ks[-1]
        self.data = data
        self.runs = [(k, attempt) for k in ks
                     for attempt in range(len(seedings))]
        self.ks = np.array([k for k, _ in self.runs])
        self.padded = np.arange(width) >= self.ks[:, None]
        self.centroids = np.stack(
            [seedings[attempt].centroids[:width] for _, attempt in self.runs]
        )
        self.labels = np.empty((len(self.runs), n), dtype=np.int64)
        self.own = np.empty((len(self.runs), n), dtype=np.float64)
        self.lower = np.empty((len(self.runs), n), dtype=np.float64)
        # Squared centre-centre distances, +inf on the diagonal and in
        # padded columns; a row is recomputed only after its centre moved.
        self.gaps = np.full((len(self.runs), width, width), np.inf)
        self.fresh = self.padded.copy()
        for part in _chunks(len(self.runs), n * width):
            seeded = np.where(self.padded[part, None, :], np.inf, np.stack([
                seedings[attempt].distances[:, :width]
                for _, attempt in self.runs[part]
            ]))
            labels = seeded.argmin(axis=2)
            self.labels[part] = labels
            self.own[part] = np.take_along_axis(
                seeded, labels[:, :, None], axis=2
            )[:, :, 0]
            self.lower[part] = _reset_bounds(seeded)

    def _keep(self, keep: np.ndarray) -> None:
        """Drop the runs not in the boolean mask *keep*."""
        for name in ("ks", "padded", "centroids", "labels", "own", "lower",
                     "gaps", "fresh"):
            setattr(self, name, getattr(self, name)[keep])

    def _assign(self, stale: np.ndarray) -> int:
        """One exact assignment step for the runs *stale*.

        Every point's squared distance to its own centre is recomputed.
        A point keeps its label when that distance is strictly below the
        larger of its lower bound and half its centre's nearest-centre
        distance (Hamerly), with :data:`_MARGIN` to spare; every other
        point gets its full row, its ``argmin`` and a fresh lower bound.
        Returns the distances evaluated.
        """
        data = self.data
        n, d = data.shape
        width = self.centroids.shape[1]
        self._refresh_gaps(stale)
        open_runs, open_points = [], []
        for part in _chunks(len(stale), n * d):
            runs = stale[part]
            labels = self.labels[runs]
            mine = self.centroids[runs[:, None], labels]
            mine -= data
            own = _square_sums(mine)
            half = 0.5 * np.sqrt(self.gaps[runs].min(axis=2))
            bound = np.maximum(
                self.lower[runs], np.take_along_axis(half, labels, axis=1)
            )
            settled = np.sqrt(own) * (1.0 + _MARGIN) < bound * (1.0 - _MARGIN)
            self.own[runs] = own
            local, points = np.nonzero(~settled)
            open_runs.append(runs[local])
            open_points.append(points)
        open_runs = np.concatenate(open_runs)
        open_points = np.concatenate(open_points)
        for part in _chunks(len(open_runs), width * d):
            runs, points = open_runs[part], open_points[part]
            delta = self.centroids[runs]
            delta -= data[points][:, None, :]
            rows = _square_sums(delta)
            rows[self.padded[runs]] = np.inf
            picked = rows.argmin(axis=1)
            self.labels[runs, points] = picked
            self.own[runs, points] = rows[np.arange(len(runs)), picked]
            self.lower[runs, points] = _reset_bounds(rows)
        return len(stale) * n + int(self.ks[open_runs].sum())

    def _refresh_gaps(self, stale: np.ndarray) -> None:
        """Recompute the gap rows (and columns) of the moved centres of
        the runs *stale*.

        A gap is a pure function of its two centres, and the square of a
        difference does not depend on its sign, so a row computed for
        one centre equals the column the full matrix would hold for it.
        """
        runs, centres = np.nonzero(~self.fresh[stale])
        runs = stale[runs]
        width, d = self.centroids.shape[1:]
        for part in _chunks(len(runs), width * d):
            run, centre = runs[part], centres[part]
            delta = self.centroids[run]
            delta -= self.centroids[run, centre][:, None, :]
            rows = _square_sums(delta)
            rows[self.padded[run]] = np.inf
            rows[np.arange(len(run)), centre] = np.inf
            self.gaps[run, centre] = rows
            self.gaps[run, :, centre] = rows
        self.fresh[stale] = True

    def _update(self) -> Tuple[np.ndarray, np.ndarray]:
        """One Lloyd update of every run: member means, bounds shrunk.

        Member sums are one weighted ``np.bincount`` over (run, label,
        dimension) bins, so each bin adds its points in row order from
        ``0.0``, as the scalar loop does.  A lower bound drops by the
        largest move among the centres other than its point's own, taken
        from the values of the two largest moves.  Returns ``(shift,
        unchanged)`` per run: the largest squared centroid move, and
        whether every centroid came back equal.
        """
        data = self.data
        n, d = data.shape
        width = self.centroids.shape[1]
        updated = self.centroids.copy()
        for part in _chunks(len(updated), n * d):
            cells = self.labels[part] + (
                np.arange(part.stop - part.start) * width
            )[:, None]
            bins = (cells[:, :, None] * d + np.arange(d)).ravel()
            weights = np.broadcast_to(data, (len(cells), n, d)).ravel()
            sums = np.bincount(
                bins, weights=weights, minlength=len(cells) * width * d
            ).reshape(-1, width, d)
            counts = np.bincount(
                cells.ravel(), minlength=len(cells) * width
            ).reshape(-1, width)
            occupied = counts > 0
            updated[part][occupied] = sums[occupied] / counts[occupied, None]
        moves = ((updated - self.centroids) ** 2).sum(axis=2)
        moved = (updated != self.centroids).any(axis=2)
        self.fresh &= ~moved
        unchanged = ~moved.any(axis=1)
        self.centroids = updated
        shrink = np.flatnonzero(~unchanged & (self.ks > 1))
        if len(shrink):
            # A padded centre moves by exactly 0, no more than any real
            # one, so it never changes the two largest values.
            steps = np.sqrt(moves[shrink])
            top = np.sort(steps, axis=1)
            first, second = top[:, -1:], top[:, -2:-1]
            own_step = np.take_along_axis(
                steps, self.labels[shrink], axis=1
            )
            step = np.where(own_step == first, second, first)
            self.lower[shrink] = (
                self.lower[shrink] * (1.0 - _SLACK) - step * (1.0 + _SLACK)
            )
        return moves.max(axis=1), unchanged

    def run(
        self, max_iterations: int, tolerance: float
    ) -> Tuple[List[KMeansResult], int]:
        """Every run to convergence; ``(results in run order, distances
        evaluated)``."""
        results: List[KMeansResult] = [None] * len(self.runs)
        histories: List[List[float]] = [[] for _ in self.runs]
        ids = np.arange(len(self.runs))
        current = np.ones(len(ids), dtype=bool)
        done = np.full(len(ids), max_iterations == 0)
        previous = np.zeros_like(self.labels)
        evaluated = 0
        iterations = 0
        while True:
            stale = np.flatnonzero(~current)
            if len(stale):
                evaluated += self._assign(stale)
            totals = self.own.sum(axis=1).tolist()
            for run, total in zip(ids.tolist(), totals):
                histories[run].append(total)
            if done.any():
                for local in np.flatnonzero(done).tolist():
                    run, k = ids[local], self.ks[local]
                    results[run] = KMeansResult(
                        centroids=self.centroids[local, :k].copy(),
                        labels=self.labels[local].copy(),
                        inertia=totals[local],
                        inertia_history=tuple(histories[run]),
                    )
                keep = ~done
                if not keep.any():
                    return results, evaluated
                ids, previous = ids[keep], previous[keep]
                self._keep(keep)
            moved = (self.labels != previous).any(axis=1)
            previous = self.labels.copy()
            shift, current = self._update()
            iterations += 1
            done = (~moved & (shift <= tolerance)) | (
                iterations == max_iterations
            )


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
    seeds once per attempt at the largest k, prunes the assignment steps
    with bounds and advances the runs of every :data:`_GROUP_KS`
    neighbouring ks in lockstep, with bit-identical results (DESIGN
    decision 12).
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
                    data, seeding.centroids, max_iterations, tolerance
                )
                runs.append((k, result))
                evaluated += seeding.evaluated
                evaluated += n * k * (result.n_iterations + 1)
    else:
        seedings = []
        for attempt in range(n_seeds):
            rng = np.random.default_rng(seed + attempt * 7919)
            seedings.append(_kmeanspp_init(data, ks[-1], rng, chosen))
            evaluated += seedings[-1].evaluated
        for lo in range(0, len(ks), _GROUP_KS):
            engine = _Lockstep(data, seedings, ks[lo:lo + _GROUP_KS])
            results, count = engine.run(max_iterations, tolerance)
            runs.extend(zip((k for k, _ in engine.runs), results))
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
