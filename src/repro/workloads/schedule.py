"""Schedule pattern builders.

Schedules assign a regime index to every outer-loop iteration.  The suite
uses these helpers to place each regime's *first* occurrence at a chosen
fraction of the run, which is what determines where COASTS classifies its
last coarse-grained simulation point (Section III-B of the paper).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ProgramError


def cyclic(n_regimes: int, n_iterations: int) -> Tuple[int, ...]:
    """``0 1 2 ... 0 1 2 ...`` — all regimes appear immediately."""
    if n_regimes < 1 or n_iterations < n_regimes:
        raise ProgramError("cyclic schedule needs n_iterations >= n_regimes")
    return tuple(i % n_regimes for i in range(n_iterations))


def blocked(n_regimes: int, n_iterations: int) -> Tuple[int, ...]:
    """``0 0 ... 1 1 ... 2 2 ...`` — contiguous runs of each regime."""
    if n_regimes < 1 or n_iterations < n_regimes:
        raise ProgramError("blocked schedule needs n_iterations >= n_regimes")
    per = n_iterations // n_regimes
    out: List[int] = []
    for r in range(n_regimes):
        count = per if r < n_regimes - 1 else n_iterations - per * (n_regimes - 1)
        out.extend([r] * count)
    return tuple(out)


def late_phase(
    base: Sequence[int], late_regime: int, first_at: float
) -> Tuple[int, ...]:
    """Delay all occurrences of *late_regime* until fraction *first_at*.

    Iterations before that point that the base schedule assigned to the late
    regime are remapped to the other regimes round-robin.
    """
    if not 0.0 <= first_at <= 1.0:
        raise ProgramError("first_at must be in [0, 1]")
    cut = int(round(first_at * len(base)))
    others = sorted(set(base) - {late_regime})
    if not others and cut > 0:
        raise ProgramError("late_phase needs at least one other regime")
    out: List[int] = []
    fill = 0
    for i, r in enumerate(base):
        if i < cut and r == late_regime:
            out.append(others[fill % len(others)])
            fill += 1
        else:
            out.append(r)
    if late_regime not in out:
        out[min(cut, len(out) - 1)] = late_regime
    return tuple(out)


def staggered(
    n_regimes: int,
    n_iterations: int,
    intros: Sequence[int],
) -> Tuple[int, ...]:
    """Cyclic schedule with progressive phase introduction.

    Regime ``r`` is guaranteed to first appear exactly at iteration
    ``intros[r]`` and participates in the round-robin from then on.  This
    reproduces the paper's observation that coarse phases are classified at
    *early but non-zero* positions (average ~17% across SPEC2000): the last
    intro iteration directly sets where COASTS' last simulation point lands.
    """
    if len(intros) != n_regimes:
        raise ProgramError("need one intro iteration per regime")
    if list(intros) != sorted(intros) or intros[0] != 0:
        raise ProgramError("intros must be sorted and start at 0")
    if intros[-1] >= n_iterations:
        raise ProgramError("last intro beyond schedule end")
    if len(set(intros)) != n_regimes:
        raise ProgramError("intro iterations must be distinct")
    intro_of = {iteration: r for r, iteration in enumerate(intros)}
    out: List[int] = []
    available = 0
    for i in range(n_iterations):
        if i in intro_of:
            available = max(available, intro_of[i] + 1)
            out.append(intro_of[i])
        else:
            out.append(i % available)
    return tuple(out)


def markov(
    n_regimes: int,
    n_iterations: int,
    stay_probability: float = 0.7,
    seed: int = 0,
) -> Tuple[int, ...]:
    """A sticky Markov walk over regimes (reproducible)."""
    if not 0.0 <= stay_probability < 1.0:
        raise ProgramError("stay_probability must be in [0, 1)")
    if n_regimes < 1 or n_iterations < 1:
        raise ProgramError("markov schedule needs positive sizes")
    rng = np.random.default_rng(seed)
    state = 0
    out = []
    for _ in range(n_iterations):
        out.append(state)
        if rng.random() >= stay_probability:
            state = int((state + 1 + rng.integers(n_regimes - 1)) % n_regimes) \
                if n_regimes > 1 else 0
    # Guarantee every regime appears at least once.
    missing = set(range(n_regimes)) - set(out)
    for i, regime in enumerate(sorted(missing)):
        out[(i * 7 + 3) % n_iterations] = regime
    return tuple(out)


def dominant_iteration_scales(
    n_iterations: int,
    dominant_index: int,
    dominant_fraction: float,
    spread: float = 0.6,
    seed: int = 0,
) -> Tuple[float, ...]:
    """Scales where one iteration holds *dominant_fraction* of the work.

    Reproduces gcc's pathology: 56 outer iterations whose instruction counts
    vary wildly, one of which accounts for ~60% of the whole run.  The other
    iterations get lognormal scales normalised so the dominant iteration's
    share is exactly *dominant_fraction* in expectation.
    """
    if not 0 <= dominant_index < n_iterations:
        raise ProgramError("dominant_index out of range")
    if not 0.0 < dominant_fraction < 1.0:
        raise ProgramError("dominant_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0.0, spread, size=n_iterations))
    scales[dominant_index] = 0.0
    rest = scales.sum()
    scales[dominant_index] = rest * dominant_fraction / (1.0 - dominant_fraction)
    return tuple(float(s) for s in scales)
