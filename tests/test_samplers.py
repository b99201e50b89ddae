"""Tests for the pluggable sampler registry and sampler conformance.

Two halves:

* registry unit tests — registration order, validation, third-party
  registration driving the harness end to end;
* a conformance suite parametrized over *every* registered sampler —
  plan determinism, exact per-phase error attribution, and
  serial == parallel result identity.  A new sampler gets all of these
  for free the moment it registers.
"""

import gc
import importlib
import json
import sys
import weakref

import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.errors import HarnessError, SamplingError
from repro.harness import DispatchPool, ExperimentRunner, ResultCache
from repro.engine import FunctionalSimulator
from repro.obs import CLUSTER_SWEEPS, KMEANS_RUNS, PROFILE_PASSES, ObsContext
from repro.samplers import (
    PlanContext,
    SamplerSpec,
    add_spec,
    get_sampler,
    register_sampler,
    registered_methods,
    unregister_sampler,
)
from repro.sampling import SamplingPlan, SimPoint, SimulationPoint

#: The shipped registration order (paper methods, then related work).
BUILTINS = (
    "simpoint", "early_sp", "coasts", "multilevel",
    "stratified", "ranked_set",
)

#: Golden deviation pins for the two related-work samplers (gzip @
#: scale 0.04, config A, the golden-accuracy sampling config); same
#: re-pinning protocol as tests/test_golden_accuracy.py.
GOLDEN_NEW = {
    "stratified": {
        "cpi": 0.0977462664079336,
        "l1_hit_rate": 0.04421011792524032,
        "l2_hit_rate": 0.05400666192996706,
    },
    "ranked_set": {
        "cpi": 0.3475949415282984,
        "l1_hit_rate": 0.05516313276124285,
        "l2_hit_rate": 0.09992603687207124,
    },
}

RTOL = 1e-9


def _noop_build(ctx):  # pragma: no cover - registration fodder
    raise NotImplementedError


class TestRegistry:
    def test_builtin_registration_order(self):
        assert registered_methods() == BUILTINS

    def test_get_sampler_returns_spec(self):
        spec = get_sampler("stratified")
        assert spec.name == "stratified"
        assert "fine" in spec.requires
        assert "stratified_budget" in spec.config_knobs

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SamplingError) as err:
            get_sampler("magic")
        for name in BUILTINS:
            assert name in str(err.value)

    def test_duplicate_name_rejected(self):
        with pytest.raises(SamplingError):
            add_spec(SamplerSpec(
                name="simpoint", description="dup", build_plan=_noop_build,
            ))

    def test_unknown_requirement_rejected(self):
        with pytest.raises(SamplingError):
            add_spec(SamplerSpec(
                name="medium_sp", description="", build_plan=_noop_build,
                requires=("medium",),
            ))
        assert "medium_sp" not in registered_methods()

    def test_unknown_config_knob_rejected(self):
        with pytest.raises(SamplingError):
            add_spec(SamplerSpec(
                name="knobby", description="", build_plan=_noop_build,
                config_knobs=("bogus_knob",),
            ))
        assert "knobby" not in registered_methods()

    def test_unregister_unknown_is_noop(self):
        unregister_sampler("never_registered")


class TestThirdPartyRegistration:
    """Registering a sampler is the only step to enter the harness."""

    def test_runner_drives_custom_sampler(self, tmp_path, test_sampling):
        @register_sampler("first_interval", "first fine interval only",
                          requires=("fine",))
        def _build(ctx):
            profile = ctx.fine_profile()
            start = int(profile.starts[0])
            end = start + int(profile.instructions[0])
            plan = SamplingPlan(
                method="first_interval",
                benchmark=ctx.benchmark,
                points=(SimulationPoint(
                    start=start, end=end, weight=1.0, phase=0,
                    interval_index=0,
                ),),
                total_instructions=ctx.trace.total_instructions,
                n_clusters=1,
                origin=start,
            )
            return plan, None

        try:
            assert "first_interval" in registered_methods()
            runner = ExperimentRunner(
                sampling=test_sampling,
                cache=ResultCache(tmp_path / "cache"),
                workload_scale=0.04,
                methods=("first_interval",),
            )
            run = runner.run_benchmark("gzip", CONFIG_A)
            assert tuple(run.methods) == ("first_interval",)
            assert run.methods["first_interval"].estimate.cpi > 0
            # No clustering diag registered -> no diagnostics entry
            # required, and the unknown-method error names it while
            # registered.
            with pytest.raises(HarnessError) as err:
                ExperimentRunner(
                    sampling=test_sampling, methods=("bogus",)
                )
            assert "first_interval" in str(err.value)
        finally:
            unregister_sampler("first_interval")
        assert "first_interval" not in registered_methods()


# ----------------------------------------------------------------------
# Conformance: every registered sampler, one parametrized contract.

@pytest.fixture(scope="module")
def conformance_runner(tmp_path_factory, test_sampling):
    return ExperimentRunner(
        sampling=test_sampling,
        cache=ResultCache(tmp_path_factory.mktemp("conf_cache")),
        workload_scale=0.04,
    )


@pytest.fixture(scope="module")
def conformance_run(conformance_runner):
    return conformance_runner.run_benchmark("gzip", CONFIG_A)


@pytest.mark.parametrize("method", registered_methods())
class TestSamplerConformance:
    def test_plan_is_deterministic(self, method, small_trace,
                                   test_sampling):
        spec = get_sampler(method)
        plans = []
        for _ in range(2):
            context = PlanContext(small_trace, test_sampling, "gzip")
            plan, _diag = spec.build_plan(context)
            plans.append(plan)
        assert plans[0] == plans[1]

    def test_plan_covers_weight_one(self, method, conformance_runner):
        plan = conformance_runner.plans("gzip")[method]
        assert plan.method == method
        assert sum(p.weight for p in plan.points) == pytest.approx(1.0)

    def test_attribution_is_exact(self, method, conformance_run):
        """est - base splits exactly into phase terms plus residual."""
        diag = conformance_run.diagnostics[method]
        for metric, total in diag["total_error"].items():
            recomposed = sum(
                row["contributions"].get(metric, 0.0)
                for row in diag["phases"]
            ) + diag["residual"][metric]
            assert recomposed == pytest.approx(total, abs=1e-9)

    def test_estimate_within_sanity_bounds(self, method, conformance_run):
        estimate = conformance_run.methods[method].estimate
        assert 0.0 < estimate.cpi < 10.0
        assert 0.0 <= estimate.l1_hit_rate <= 1.0
        assert 0.0 <= estimate.l2_hit_rate <= 1.0


#: The SimPoint family: the methods that share one fine clustering.
FINE_FAMILY = ("simpoint", "early_sp", "stratified")


class TestSharedFineClustering:
    @staticmethod
    def _counters(obs, name):
        return {
            dict(labels)["method"]: metric.value
            for metric_name, labels, metric in obs.metrics.samples()
            if metric_name == name
        }

    def test_shared_context_books_one_fine_sweep(self, small_trace,
                                                 test_sampling):
        obs = ObsContext()
        context = PlanContext(small_trace, test_sampling, "gzip", obs=obs)
        for method in FINE_FAMILY:
            get_sampler(method).build_plan(context)
        # The first method runs the sweep; the others hit the memo.
        assert self._counters(obs, CLUSTER_SWEEPS) == {"simpoint": 1.0}
        n_intervals = context.fine_profile().n_intervals
        candidates = min(test_sampling.fine_kmax, n_intervals)
        assert self._counters(obs, KMEANS_RUNS) == {
            "simpoint": candidates * test_sampling.kmeans_seeds,
        }

    def test_fresh_contexts_book_one_sweep_each(self, small_trace,
                                                test_sampling):
        obs = ObsContext()
        for method in FINE_FAMILY:
            context = PlanContext(small_trace, test_sampling, "gzip",
                                  obs=obs)
            get_sampler(method).build_plan(context)
        assert self._counters(obs, CLUSTER_SWEEPS) == {
            method: 1.0 for method in FINE_FAMILY
        }

    def test_all_methods_book_one_fine_and_one_coarse_sweep(
            self, small_trace, test_sampling):
        """Multilevel reuses COASTS's sweep; its in-point SimPoint books
        one sweep per re-sampled point under ``multilevel``."""
        obs = ObsContext()
        context = PlanContext(small_trace, test_sampling, "gzip", obs=obs)
        for method in registered_methods():
            context.plan(get_sampler(method))
        multilevel_plan, _ = context.built["multilevel"]
        resampled = sum(p.is_resampled for p in multilevel_plan.points)
        assert self._counters(obs, CLUSTER_SWEEPS) == {
            "simpoint": 1.0, "coasts": 1.0, "multilevel": float(resampled),
        }
        coarse_runs = self._counters(obs, KMEANS_RUNS)["coasts"]
        assert coarse_runs > 0
        assert coarse_runs % test_sampling.kmeans_seeds == 0

    def test_multilevel_books_every_sweep_and_pass(
            self, small_trace, test_sampling, monkeypatch):
        """Every in-point sweep and every profiling pass that runs is
        counted: one structure and one coarse pass for COASTS, then one
        fixed-interval pass and one sweep per re-sampled point."""
        made = []
        for name in ("run", "profile_fixed_intervals",
                     "profile_coarse_intervals", "profile_structures"):
            original = getattr(FunctionalSimulator, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                made.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FunctionalSimulator, name, spy)
        obs = ObsContext()
        context = PlanContext(small_trace, test_sampling, "gzip", obs=obs)
        plan, _ = context.plan(get_sampler("multilevel"))
        resampled = sum(p.is_resampled for p in plan.points)
        assert resampled > 0
        assert self._counters(obs, CLUSTER_SWEEPS) == {
            "coasts": 1.0, "multilevel": float(resampled),
        }
        passes = sum(
            metric.value for metric_name, _, metric in obs.metrics.samples()
            if metric_name == PROFILE_PASSES
        )
        assert passes == len(made) == 2 + resampled

    @pytest.mark.parametrize("methods", [
        ("multilevel", "coasts"), ("coasts", "multilevel"),
    ])
    def test_multilevel_reuses_the_coasts_plan(self, test_sampling,
                                               methods):
        """Whichever is built first, the pair books one coarse sweep (plus
        multilevel's in-point sweeps) and multilevel refines the plan
        reported as coasts."""
        runner = ExperimentRunner(
            sampling=test_sampling, cache=ResultCache(enabled=False),
            workload_scale=0.04, methods=methods,
        )
        runner.run_benchmark("gzip", CONFIG_A)
        built = runner.context("gzip").built
        resampled = sum(p.is_resampled for p in built["multilevel"][0].points)
        assert self._counters(runner.obs, CLUSTER_SWEEPS) == {
            "coasts": 1.0, "multilevel": float(resampled),
        }

        def points(method):
            return [(p.start, p.end) for p in built[method][0].points]

        assert points("multilevel") == points("coasts")

    def test_second_config_reuses_every_plan(self, test_sampling):
        """Config A's run releases the trace; config B after it reloads
        the trace but builds nothing: no sweep is booked, its run span
        has no profiling or plan_construction stage, and the run is a
        fresh runner's config-B run byte for byte."""
        def runner_of():
            return ExperimentRunner(
                sampling=test_sampling, cache=ResultCache(enabled=False),
                workload_scale=0.04,
            )

        runner = runner_of()
        trace = weakref.ref(runner.trace("gzip"))
        runner.run_benchmark("gzip", CONFIG_A)
        gc.collect()
        assert trace() is None
        sweeps = self._counters(runner.obs, CLUSTER_SWEEPS)
        run_b = runner.run_benchmark("gzip", CONFIG_B)
        assert self._counters(runner.obs, CLUSTER_SWEEPS) == sweeps
        config_b = runner.obs.tracer.roots[-1]
        assert [stage.name for stage in config_b.children] == [
            "trace_build", "detailed_simulation", "diagnostics",
        ]
        fresh_b = runner_of().run_benchmark("gzip", CONFIG_B)
        assert json.dumps(run_b.to_dict()) == json.dumps(fresh_b.to_dict())

    def test_foreign_profile_rejected(self, small_trace, test_sampling,
                                      small_fine_profile):
        context = PlanContext(small_trace, test_sampling, "gzip")
        with pytest.raises(SamplingError, match="fine profile"):
            SimPoint(test_sampling).sample(small_fine_profile,
                                           context=context)


def test_serial_equals_parallel(tmp_path, test_sampling):
    """All-methods results are byte-identical across execution modes."""
    def outcome(jobs, sub):
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(tmp_path / sub),
            workload_scale=0.04,
            jobs=jobs,
        )
        result = runner.run_suite(names=["gzip"], jobs=jobs)
        return [run.to_dict() for run in result]

    assert outcome(1, "serial") == outcome(2, "parallel")


def test_plugin_sampler_reaches_workers(tmp_path, test_sampling):
    """A sampler registered outside ``repro`` runs identically at jobs=2:
    each worker imports the module that defines it."""
    plugin = importlib.import_module("tests.sampler_plugin")
    try:
        def outcome(jobs, sub):
            runner = ExperimentRunner(
                sampling=test_sampling,
                cache=ResultCache(tmp_path / sub),
                workload_scale=0.04,
                methods=(plugin.NAME, "simpoint"),
            )
            result = runner.run_suite(names=["gzip", "lucas"], jobs=jobs)
            assert result.ok
            return [run.to_dict() for run in result]

        assert outcome(1, "serial") == outcome(2, "parallel")
    finally:
        unregister_sampler(plugin.NAME)
        sys.modules.pop(plugin.__name__, None)


def test_main_module_sampler_rejected_before_spawn(tmp_path, test_sampling):
    def _build(ctx):  # pragma: no cover - never runs
        raise NotImplementedError

    _build.__module__ = "__main__"
    register_sampler("main_only", "defined in a script")(_build)
    try:
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(tmp_path),
            workload_scale=0.04,
            methods=("main_only",),
        )
        pool = DispatchPool(workers=2)
        with pytest.raises(HarnessError, match="__main__"):
            runner.run_suite(names=["gzip", "lucas"], pool=pool)
        assert pool.spawned_pids == []
    finally:
        unregister_sampler("main_only")


# ----------------------------------------------------------------------
# Conformance over seeded family members: the same contracts must hold
# off the hand-written suite, since campaigns run mostly on fam: names.

FAMILY_MEMBERS = (
    "fam:irregular[0]",
    "fam:phase-heavy[1]",
    "fam:multi-regime[2]",
)


@pytest.fixture(scope="module")
def family_runs(conformance_runner):
    return {
        name: conformance_runner.run_benchmark(name, CONFIG_A)
        for name in FAMILY_MEMBERS
    }


# NB: the parameter is named `member`, not `benchmark` — pytest-benchmark
# owns a `benchmark` fixture and hijacks any funcarg of that name.
@pytest.mark.parametrize("member", FAMILY_MEMBERS)
class TestFamilyConformance:
    def test_plans_deterministic_across_rebuilds(self, member,
                                                 conformance_runner,
                                                 test_sampling):
        trace = conformance_runner.trace(member)
        for method in registered_methods():
            spec = get_sampler(method)
            first, _ = spec.build_plan(
                PlanContext(trace, test_sampling, member)
            )
            second, _ = spec.build_plan(
                PlanContext(trace, test_sampling, member)
            )
            assert first == second, method

    @pytest.mark.parametrize("method", registered_methods())
    def test_plan_covers_weight_one(self, member, method,
                                    conformance_runner, family_runs):
        plan = conformance_runner.plans(member)[method]
        assert plan.method == method
        assert plan.benchmark == member
        assert sum(p.weight for p in plan.points) == pytest.approx(1.0)

    @pytest.mark.parametrize("method", registered_methods())
    def test_attribution_is_exact(self, member, method, family_runs):
        diag = family_runs[member].diagnostics[method]
        for metric, total in diag["total_error"].items():
            recomposed = sum(
                row["contributions"].get(metric, 0.0)
                for row in diag["phases"]
            ) + diag["residual"][metric]
            assert recomposed == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("method", registered_methods())
    def test_estimate_within_sanity_bounds(self, member, method,
                                           family_runs):
        estimate = family_runs[member].methods[method].estimate
        assert 0.0 < estimate.cpi < 10.0
        assert 0.0 <= estimate.l1_hit_rate <= 1.0
        assert 0.0 <= estimate.l2_hit_rate <= 1.0


def test_family_serial_equals_parallel(tmp_path, test_sampling):
    """Workers resolve fam: names by themselves; results are identical."""
    names = ["fam:input-dependent[0]", "fam:cache-hostile[1]"]

    def outcome(jobs, sub):
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(tmp_path / sub),
            workload_scale=0.04,
            jobs=jobs,
            methods=("simpoint", "multilevel"),
        )
        result = runner.run_suite(names=names, jobs=jobs)
        return [run.to_dict() for run in result]

    assert outcome(1, "serial") == outcome(2, "parallel")


class TestNewSamplerGoldens:
    @pytest.fixture(scope="class")
    def golden_run(self, test_sampling):
        runner = ExperimentRunner(
            sampling=test_sampling,
            cache=ResultCache(enabled=False),
            workload_scale=0.04,
            methods=tuple(GOLDEN_NEW),
        )
        return runner.run_benchmark("gzip", CONFIG_A)

    @pytest.mark.parametrize("method", sorted(GOLDEN_NEW))
    def test_deviations_pinned(self, golden_run, method):
        deviation = golden_run.methods[method].deviation
        expected = GOLDEN_NEW[method]
        assert deviation.cpi == pytest.approx(expected["cpi"], rel=RTOL)
        assert deviation.l1_hit_rate == pytest.approx(
            expected["l1_hit_rate"], rel=RTOL
        )
        assert deviation.l2_hit_rate == pytest.approx(
            expected["l2_hit_rate"], rel=RTOL
        )

    def test_stratified_respects_budget(self, golden_run, test_sampling):
        stats = golden_run.methods["stratified"].stats
        assert stats.n_leaves <= test_sampling.stratified_budget

    def test_ranked_set_leaf_bound(self, golden_run, test_sampling):
        # At most size x cycles leaves; duplicates merge, so fewer is
        # legal too.
        stats = golden_run.methods["ranked_set"].stats
        assert stats.n_leaves <= (
            test_sampling.ranked_set_size * test_sampling.ranked_set_cycles
        )
