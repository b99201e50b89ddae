"""Analytic LRU cache-occupancy model for data accesses.

The block-level timing simulator models the data hierarchy with per-region
*residency* accounting rather than per-line state (cf. statistical cache
models such as StatCache/StatStack).

**Visit-level hit rates.** A loop visit sweeps its footprint ``F`` lines
(re-starting from the beginning each visit) for a known total of ``T``
distinct-line touches.  When a visit begins, the model derives one hit rate
for the whole visit from the residency ``R`` its region retained since its
last visit::

    hits(T) = min(T, F) * R/F          # first sweep: only retained lines hit
            + max(0, T - F) * min(1, C/F)   # re-sweeps: self-capacity bound

Every batch of the visit — whether the baseline processes it as one giant
run or a simulation point slices 2.5K instructions out of its middle —
hits at the same rate.  This position-independence is deliberate: real 10M
SimPoint intervals dwarf inner-loop sweeps, so per-interval cache behaviour
is position-stationary in the paper's setting; at our 250:1 instruction
scale a per-line (or within-visit-evolving) model would make a thin slice's
hit rate depend on where in the sweep it falls, which is an artifact, not
microarchitecture.

**Visits are keyed, not inferred.**  Visit state is kept per visit key
(the timing simulator passes ``(segment index, block)``), not per region:
two blocks of one segment that sweep the same region each keep their
own visit, so cutting a segment into several batches — at any rep
boundary — never restarts a visit and re-derives its hit rates from the
residency the visit itself just installed.  That makes a detailed walk
split-additive: simulating ``[a, b)`` then ``[b, c)`` on one carried
state books exactly what ``[a, c)`` books.  A visit run whole in one
batch keeps no state at all: :meth:`DataHierarchyModel.enter_visit`
returns its rates and installs its residency, and nothing later asks for
them.

**LRU across regions.** Residency is capacity-managed across regions with
recency-ordered eviction: the region being swept keeps its footprint (up to
capacity); the stalest regions lose theirs first.  History therefore still
matters — a phase's first-ever visit after a long absence sees whatever its
region retained, warming passes populate state, and capacity differences
(config A vs B) shift every hit rate.  Recency is an ordered list that each
install moves its region to the end of, so an overflow walks it from the
front instead of sorting every region by a last-access stamp; a region
the walk drains to zero leaves the list until it is installed again
(draining it once more would take nothing).  The total that decides an
overflow is still summed over every region in first-install order, so
each float is what the stamped, sorted ledger computed.

The set-associative model in :mod:`repro.uarch.cache` remains in use for
the instruction cache and the instruction-level OoO reference simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Tuple

from ..config import CacheConfig
from ..errors import SimulationError


def visit_hit_rate(
    resident: float, footprint: float, visit_touches: float, capacity: float
) -> float:
    """Hit rate of a visit of *visit_touches* touches over *footprint* lines
    entered with *resident* lines retained, in a cache of *capacity* lines."""
    if visit_touches <= 0:
        return 0.0
    if footprint <= 0:
        raise SimulationError("bad footprint")
    resident = min(resident, footprint)
    first = min(visit_touches, footprint)
    hits = first * (resident / footprint)
    rest = visit_touches - first
    if rest > 0:
        hits += rest * min(1.0, capacity / footprint)
    return min(1.0, hits / visit_touches)


class OccupancyCache:
    """Per-region residency ledger of one cache level (LRU across regions)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.capacity = float(config.n_lines)
        #: Resident lines per region.  Keys keep their first-install
        #: order for the life of the ledger: the overflow sum adds the
        #: values in that order, so reordering it would move floats.
        self._residency: Dict[int, float] = {}
        #: The regions eviction may still drain, least recently
        #: installed first.
        self._recency: "OrderedDict[int, None]" = OrderedDict()

    def reset(self) -> None:
        """Drop all residency (cold cache)."""
        self._residency.clear()
        self._recency.clear()

    # ------------------------------------------------------------------
    def residency(self, region: int) -> float:
        """Resident lines of *region*."""
        return self._residency.get(region, 0.0)

    @property
    def occupancy(self) -> float:
        """Total resident lines across regions."""
        return sum(self._residency.values())

    def install(self, region: int, lines: float) -> None:
        """Set *region*'s residency to *lines* (capped by capacity), marking
        it most recently used and evicting stalest regions on overflow."""
        residency = self._residency
        recency = self._recency
        residency[region] = min(lines, self.capacity)
        recency[region] = None
        recency.move_to_end(region)
        overflow = sum(residency.values()) - self.capacity
        if overflow > 1e-9:
            drained = []
            for key in recency:
                if key == region:
                    continue
                take = min(overflow, residency[key])
                residency[key] -= take
                overflow -= take
                if not residency[key]:
                    drained.append(key)
                if overflow <= 1e-9:
                    break
            # A drained region gives nothing until it is installed again,
            # which puts it back at the most recent end.
            for key in drained:
                del recency[key]
            if overflow > 1e-9:
                residency[region] = max(0.0, residency[region] - overflow)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OccupancyCache {self.config.name} {self.occupancy:.0f}/"
            f"{self.capacity:.0f} lines>"
        )


class DataHierarchyModel:
    """L1D over unified L2, both as occupancy ledgers with visit hit rates.

    Instruction-fetch misses share the L2: they are routed in as touches of
    a dedicated *code region*.
    """

    #: Region id used for instruction lines in the (unified) L2.
    CODE_REGION = -1

    def __init__(self, l1_config: CacheConfig, l2_config: CacheConfig) -> None:
        self.l1 = OccupancyCache(l1_config)
        self.l2 = OccupancyCache(l2_config)
        #: Open visits: ``(l1_hit, l2_hit)`` per visit key, fixed at the
        #: visit's first batch and applied to all its batches.
        self.visits: Dict[Hashable, Tuple[float, float]] = {}

    def reset(self) -> None:
        """Cold hierarchy."""
        self.l1.reset()
        self.l2.reset()
        self.visits.clear()

    # ------------------------------------------------------------------
    def access_data(
        self,
        region: int,
        footprint: float,
        visit_key: Hashable,
        visit_touches: float,
        touches: float,
    ) -> Tuple[float, float]:
        """Data touches of one batch of a visit; returns fractional
        ``(l1_misses, l2_misses)``.

        ``visit_key`` identifies the visit (one block of one loop-body
        segment of the trace); its first batch fixes the visit's hit
        rates from current residency (:meth:`enter_visit`).  Later
        batches with the same key reuse those rates until
        :meth:`end_visit`.
        """
        rates = self.visits.get(visit_key)
        if rates is None:
            rates = self.visits[visit_key] = self.enter_visit(
                region, footprint, visit_touches
            )
        l1_misses = touches * (1.0 - rates[0])
        l2_misses = l1_misses * (1.0 - rates[1])
        return l1_misses, l2_misses

    def enter_visit(
        self, region: int, footprint: float, visit_touches: float
    ) -> Tuple[float, float]:
        """Begin a visit of *visit_touches* touches over *footprint* lines
        of *region*: returns its ``(l1_hit, l2_hit)`` rates and installs
        the residency it leaves behind.

        A caller that runs a whole visit in one batch needs nothing
        else: the rates apply to that batch, and there is no later batch
        to remember them for.
        """
        l1, l2 = self.l1, self.l2
        l1_before = l1.residency(region)
        l2_before = l2.residency(region)
        l1_hit = visit_hit_rate(
            l1_before, footprint, visit_touches, l1.capacity
        )
        l2_touches = visit_touches * (1.0 - l1_hit)
        l2_hit = visit_hit_rate(l2_before, footprint, l2_touches, l2.capacity)
        # After the visit the region holds what it had plus the newly
        # missed lines (a full sweep leaves the whole footprint resident, a
        # sparse traversal only its touched subset), capacity permitting.
        l1.install(region, min(
            footprint, l1_before + visit_touches * (1.0 - l1_hit)
        ))
        l2.install(region, min(
            footprint, l2_before + l2_touches * (1.0 - l2_hit)
        ))
        return l1_hit, l2_hit

    def end_visit(self, visit_key: Hashable) -> None:
        """Forget the visit *visit_key* (its segment has run to its end)."""
        self.visits.pop(visit_key, None)

    # ------------------------------------------------------------------
    def access_code(self, code_lines: float, touches: float) -> float:
        """Instruction-fetch misses arriving at the L2; returns L2 misses.

        Code is a steadily re-touched region: its hit rate is its resident
        fraction, updated incrementally.
        """
        if touches <= 0:
            return 0.0
        resident = self.l2.residency(self.CODE_REGION)
        hit = min(1.0, resident / max(code_lines, 1.0))
        misses = touches * (1.0 - hit)
        self.l2.install(
            self.CODE_REGION, min(code_lines, resident + misses)
        )
        return misses
