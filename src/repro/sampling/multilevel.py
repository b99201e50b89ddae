"""The multi-level sampling framework (Section IV).

Level one runs :class:`~repro.sampling.coasts.Coasts` to pick coarse-grained
simulation points.  Level two re-samples every coarse point whose size
exceeds the threshold (fine interval size x fine Kmax, the paper's
10M x 30 = 300M) with ordinary fixed-length SimPoint applied *inside* the
point.  Fine points represent only their coarse parent, so far fewer of them
are needed than when fine-grained SimPoint must represent the whole program
— that is the source of the detailed-simulation-time reduction.

Weights compose multiplicatively: a fine point with in-parent weight ``w_f``
inside a coarse point of weight ``w_c`` carries global weight
``w_c * w_f``.  Sampling twice accumulates slightly more error (paper,
Section III-B) — visible in our Table II reproduction too.
"""

from __future__ import annotations

import copy
from typing import List, Optional

from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..engine.functional import FunctionalSimulator
from ..engine.trace import Trace
from ..errors import SamplingError
from ..obs import ObsContext
from ..obs.diag import MethodDiag
from .coasts import Coasts
from .points import SamplingPlan, SimulationPoint
from .simpoint import SimPoint


class _InPointSimPoint(SimPoint):
    """SimPoint inside one coarse point: its sweeps are multilevel's."""

    method_name = "multilevel"


class MultiLevelSampler:
    """COASTS + in-point fine-grained SimPoint re-sampling.

    With *obs*, the profiling passes and every k-means/BIC sweep book
    into its metrics: COASTS's under ``coasts``, the in-point ones under
    ``multilevel``.
    """

    method_name = "multilevel"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        self.obs = obs
        self.coarse = Coasts(config, obs=obs)
        self.fine = _InPointSimPoint(config, obs=obs)
        if self.config.resample_threshold < self.fine.interval_size:
            raise SamplingError(
                "resample threshold smaller than the fine interval size"
            )
        #: Diagnostics of the most recent :meth:`sample` call: the coarse
        #: clustering's diagnostics with the re-sampled phases marked
        #: (None when the coarse diagnostics were unavailable).
        self.last_diagnostics: Optional[MethodDiag] = None

    # ------------------------------------------------------------------
    def sample(
        self,
        trace: Trace,
        benchmark: str = "",
        coarse_plan: SamplingPlan | None = None,
        coarse_diag: Optional[MethodDiag] = None,
    ) -> SamplingPlan:
        """Produce the multi-level plan for *trace*.

        An existing COASTS plan can be passed to avoid re-clustering when
        both are evaluated side by side (as the harness does); pass the
        matching *coarse_diag* alongside so the multi-level diagnostics
        can be derived without re-clustering either.
        """
        benchmark = benchmark or trace.spec.name
        if coarse_plan is None:
            coarse_plan = self.coarse.sample(trace, benchmark=benchmark)
            coarse_diag = self.coarse.last_diagnostics
        functional = self.coarse.functional(trace)

        points: List[SimulationPoint] = []
        for point in coarse_plan.points:
            if point.size <= self.config.resample_threshold:
                points.append(point)
                continue
            points.append(self._resample(functional, point, benchmark))

        # The second level re-samples *within* phases, so the phase
        # structure — weights, members, cluster quality — is the coarse
        # clustering's; only the representative terms differ (the
        # harness computes those from the plan's leaves).
        self.last_diagnostics = None
        if coarse_diag is not None:
            diag = copy.deepcopy(coarse_diag)
            diag.method = self.method_name
            for point in points:
                row = diag.phase_by_id(point.phase)
                if row is not None and point.is_resampled:
                    row.resampled = True
            self.last_diagnostics = diag
            if self.obs is not None:
                self.obs.tracer.start_span(
                    "sampling", method=self.method_name, benchmark=benchmark,
                    resampled_points=sum(1 for p in points if p.is_resampled),
                    n_clusters=coarse_plan.n_clusters,
                ).end()

        return SamplingPlan(
            method=self.method_name,
            benchmark=benchmark,
            points=tuple(points),
            total_instructions=coarse_plan.total_instructions,
            n_clusters=coarse_plan.n_clusters,
        )

    # ------------------------------------------------------------------
    def _resample(
        self,
        functional: FunctionalSimulator,
        point: SimulationPoint,
        benchmark: str,
    ) -> SimulationPoint:
        """Second-level sampling of one oversized coarse point."""
        profile = functional.profile_fixed_intervals(
            self.fine.interval_size, start=point.start, end=point.end
        )
        fine_plan = self.fine.sample(
            profile, benchmark=f"{benchmark}:{point.phase}"
        )
        children = tuple(
            SimulationPoint(
                start=child.start,
                end=child.end,
                weight=point.weight * child.weight,
                phase=child.phase,
                interval_index=child.interval_index,
            )
            for child in fine_plan.points
        )
        return SimulationPoint(
            start=point.start,
            end=point.end,
            weight=point.weight,
            phase=point.phase,
            interval_index=point.interval_index,
            children=children,
        )
