"""The sampler registry: one uniform ``plan → estimate → diag`` contract.

Every sampling method the harness can evaluate is described by a
:class:`SamplerSpec` — its name, the profiles it needs, the
:class:`~repro.config.SamplingConfig` knobs it reads, and a
``build_plan(ctx)`` entry point that turns a :class:`PlanContext` into a
:class:`~repro.sampling.points.SamplingPlan` plus (optionally) the
clustering-side :class:`~repro.obs.diag.MethodDiag`.  The harness, the
CLI's ``--methods`` choices, the cache's method keys and the diag tables
all derive from this registry, so registering a sampler here is the
*only* step needed to enter every report, the conformance tests and the
leaderboard.

Third-party registration::

    from repro.samplers import PlanContext, register_sampler

    @register_sampler("my_method", "what it does", requires=("fine",))
    def _build_my_method(ctx: PlanContext):
        profile = ctx.fine_profile()
        ...
        return plan, diag          # diag may be None

The paper's four methods and the two related-work samplers are
registered by :mod:`repro.samplers.builtin` at package import, so the
registry is never empty once ``repro.samplers`` is imported (the harness
imports it; dispatcher workers therefore self-register too).  A sampler
registered anywhere else reaches ``jobs > 1`` workers by the name of the
module defining its ``build_plan``, which each worker imports (see
:func:`repro.harness.worker.plugin_modules`).

:class:`PlanContext` memoises the expensive shared inputs — the fine
fixed-interval BBV profile and the COASTS coarse plan — so co-scheduled
methods share them exactly as the pre-registry harness did (bit-for-bit:
the same profile object, the same coarse clustering).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from ..config import SamplingConfig
from ..errors import SamplingError
from ..obs.diag import MethodDiag
from ..sampling.points import SamplingPlan

#: Shared inputs a sampler may declare in ``SamplerSpec.requires``.
KNOWN_REQUIREMENTS: Tuple[str, ...] = ("trace", "fine", "coarse")

#: Names of the real SamplingConfig knobs (for config_knobs validation).
_CONFIG_FIELDS = frozenset(f.name for f in fields(SamplingConfig))


class PlanContext:
    """Everything a sampler needs to build a plan for one benchmark.

    Shared profiles are memoised so that co-scheduled samplers reuse
    them: all fine-grained methods see the *same*
    :class:`~repro.engine.profiles.FixedIntervalProfile` object, and
    COASTS/multilevel share one coarse clustering, exactly as the
    hand-wired harness pipeline did.
    """

    def __init__(self, trace, sampling: SamplingConfig, benchmark: str,
                 obs=None) -> None:
        self.trace = trace
        self.sampling = sampling
        self.benchmark = benchmark
        #: Optional :class:`~repro.obs.ObsContext`; samplers built from
        #: this context trace into it.
        self.obs = obs
        self._functional = None
        self._fine_profile = None
        self._coasts: Optional[Tuple[SamplingPlan, Optional[MethodDiag]]] = None

    # ------------------------------------------------------------------
    @property
    def functional(self):
        """A (memoised) functional simulator over the trace."""
        if self._functional is None:
            from ..engine.functional import FunctionalSimulator

            metrics = self.obs.metrics if self.obs is not None else None
            self._functional = FunctionalSimulator(self.trace, metrics=metrics)
        return self._functional

    @property
    def has_fine_profile(self) -> bool:
        """Has the fine profile already been collected?"""
        return self._fine_profile is not None

    def fine_profile(self):
        """The (memoised) fine fixed-interval BBV profile."""
        if self._fine_profile is None:
            self._fine_profile = self.functional.profile_fixed_intervals(
                self.sampling.fine_interval_size
            )
        return self._fine_profile

    def coasts(self) -> Tuple[SamplingPlan, Optional[MethodDiag]]:
        """The (memoised) COASTS coarse plan and its diagnostics."""
        if self._coasts is None:
            from ..sampling.coasts import Coasts

            sampler = Coasts(self.sampling, obs=self.obs)
            plan = sampler.sample(self.trace, benchmark=self.benchmark)
            self._coasts = (plan, sampler.last_diagnostics)
        return self._coasts


#: ``build_plan`` signature: context in, (plan, clustering diag) out.
BuildPlan = Callable[
    [PlanContext], Tuple[SamplingPlan, Optional[MethodDiag]]
]


@dataclass(frozen=True)
class SamplerSpec:
    """Registry entry of one sampling method."""

    name: str
    description: str
    build_plan: BuildPlan
    #: Shared inputs the method consumes (subset of
    #: :data:`KNOWN_REQUIREMENTS`); the harness uses ``"fine"`` to
    #: attribute the fine-profiling pass to the ``profiling`` stage.
    requires: Tuple[str, ...] = ()
    #: SamplingConfig knobs the method reads (documentation + validation:
    #: every name must be a real config field).
    config_knobs: Tuple[str, ...] = field(default=())


_REGISTRY: Dict[str, SamplerSpec] = {}


def add_spec(spec: SamplerSpec) -> SamplerSpec:
    """Register *spec*, validating its declarations."""
    if spec.name in _REGISTRY:
        raise SamplingError(f"sampler {spec.name!r} is already registered")
    unknown = set(spec.requires) - set(KNOWN_REQUIREMENTS)
    if unknown:
        raise SamplingError(
            f"sampler {spec.name!r}: unknown requirements {sorted(unknown)} "
            f"(known: {', '.join(KNOWN_REQUIREMENTS)})"
        )
    bogus = set(spec.config_knobs) - _CONFIG_FIELDS
    if bogus:
        raise SamplingError(
            f"sampler {spec.name!r}: config_knobs {sorted(bogus)} are not "
            f"SamplingConfig fields"
        )
    _REGISTRY[spec.name] = spec
    return spec


def register_sampler(
    name: str,
    description: str,
    requires: Tuple[str, ...] = (),
    config_knobs: Tuple[str, ...] = (),
) -> Callable[[BuildPlan], BuildPlan]:
    """Decorator form of :func:`add_spec` for ``build_plan`` functions."""

    def decorate(build_plan: BuildPlan) -> BuildPlan:
        add_spec(SamplerSpec(
            name=name,
            description=description,
            build_plan=build_plan,
            requires=tuple(requires),
            config_knobs=tuple(config_knobs),
        ))
        return build_plan

    return decorate


def unregister_sampler(name: str) -> None:
    """Remove a registered sampler (tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def registered_methods() -> Tuple[str, ...]:
    """All registered method names, in registration order.

    Registration order is reporting order: the built-in methods register
    in the paper's order (simpoint, early_sp, coasts, multilevel)
    followed by the related-work samplers.
    """
    return tuple(_REGISTRY)


def get_sampler(name: str) -> SamplerSpec:
    """The spec registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SamplingError(
            f"unknown sampler {name!r} (registered: "
            f"{', '.join(registered_methods()) or 'none'})"
        ) from None
