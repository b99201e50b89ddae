"""The four end-to-end workloads and how a seed turns into their inputs.

All of them run under machine configuration A.

Each workload stresses one layer and bypasses at least one other, so a
change to one layer has a workload that should move and one that should
not (see README.md for the measured shares):

* ``plan-heavy`` — most of its wall time is k-means/BIC sweeps in
  ``repro.analysis``; detailed timing is a few percent.
* ``detail-heavy`` — most of its wall time is
  ``TimingSimulator.simulate_range``; planning is about a tenth.
* ``campaign-jobs2`` — many short runs over the process pool, so per-task
  harness cost (spawn, shared-memory trace share/attach, pickling, obs
  merge, journal fsync) is visible.  The serial workloads bypass it.
* ``warm-rerun`` — the same campaign re-read from a warm cache: zero
  detailed instructions, all cache reads, journal appends and diagnostics
  gauge re-recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The generated program families, in the order their members are listed.
FAMILIES: Tuple[str, ...] = (
    "irregular", "phase-heavy", "input-dependent", "multi-regime",
    "cache-hostile",
)

#: Members per family in a campaign; seed ``s`` selects ``[32s, 32s+32)``.
MEMBERS_PER_FAMILY = 32

@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, and how it runs them."""

    name: str
    #: Workload scale handed to ``ExperimentRunner(workload_scale=...)``.
    scale: float
    #: Sampling methods to evaluate; ``None`` means every registered one.
    methods: Optional[Tuple[str, ...]]
    #: ``run_suite(jobs=...)`` of the untraced, timed runs.
    jobs: int
    #: True: seeded family campaign; False: the paper's fixed quick set.
    campaign: bool
    #: Warm reruns timed after a cold cache fill in set-up (0: time the
    #: cold suite itself).
    reruns: int = 0
    #: ``run_suite(jobs=...)`` of the set-up cache fill.
    fill_jobs: int = 1

    def expression(self, seed: int) -> Optional[str]:
        """The ``run_suite`` set expression for *seed* (``None``: quick set).

        The quick set is the paper's fixed named programs and ignores the
        seed; a campaign takes members ``[32s, 32s+32)`` of every family.
        """
        if not self.campaign:
            return None
        lo = MEMBERS_PER_FAMILY * seed
        hi = lo + MEMBERS_PER_FAMILY
        return " + ".join(f"fam:{family}[{lo}:{hi}]" for family in FAMILIES)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="plan-heavy",
            scale=0.05,
            methods=None,
            jobs=1,
            campaign=False,
        ),
        Workload(
            name="detail-heavy",
            scale=1.0,
            methods=("coasts", "multilevel"),
            jobs=1,
            campaign=False,
        ),
        Workload(
            name="campaign-jobs2",
            scale=0.25,
            methods=("coasts", "multilevel"),
            jobs=2,
            campaign=True,
        ),
        Workload(
            name="warm-rerun",
            scale=0.25,
            methods=("coasts", "multilevel"),
            jobs=1,
            campaign=True,
            reruns=10,
            fill_jobs=2,
        ),
    )
}
