"""Order statistics and the base-vs-change verdict of ``run.py compare``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Verdicts of one (metric, workload) row.
PASS, REGRESSED, IMPROVED, UNRESOLVED = (
    "PASS", "REGRESSED", "IMPROVED", "UNRESOLVED")

#: Share of all (base, change) rep pairs the change must win to improve.
WIN_SHARE = 0.9


def median(values: Sequence[float]) -> float:
    """The median of *values* (at least one)."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile, interpolating linearly between order
    statistics (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``; 0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def classify(base: Sequence[float], change: Sequence[float], bound: float,
             better: str, floor: float = 0.0) -> str:
    """Verdict for one metric on one workload from every rep of each side.

    The change REGRESSED when its median is worse than the base median by
    more than ``max(bound * |base median|, floor)``.  The row is
    UNRESOLVED instead of PASS or REGRESSED when the base reps spread
    (interquartile distance over median) wider than *bound*, unless every
    change rep beats every base rep.  It IMPROVED when the change wins at
    least nine tenths of all (base, change) rep pairs, ties counting for
    neither side, and its median is better by more than the base's
    interquartile distance.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_mid, change_mid = median(base), median(change)
    worse_by = sign * (change_mid - base_mid)
    wins = sum(1 for b in base for c in change if sign * (c - b) < 0)
    all_better = wins == len(base) * len(change)
    if all_better or wins >= WIN_SHARE * len(base) * len(change):
        q1, q3 = (statistics.quantiles(base, n=4)[::2] if len(base) > 1
                  else (base_mid, base_mid))
        if -worse_by > q3 - q1:
            return IMPROVED
    if quartile_spread(base) > bound and not all_better:
        return UNRESOLVED
    if worse_by > max(bound * abs(base_mid), floor):
        return REGRESSED
    return PASS
