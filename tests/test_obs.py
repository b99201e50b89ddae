"""Tests for the observability subsystem.

Covers the span tracer (nesting, error propagation, serialisation,
cross-process merge), the metrics registry (counter/gauge/histogram
semantics, multi-process merge, Prometheus exposition), the exporters
(JSONL round-trip, report rendering), run manifests, and the
instrumented harness: span trees across retried runs, parallel metrics
equal to serial ones, cache counters surfaced through the registry, and
the manifest outcome read from the run and suite spans.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import CONFIG_A
from repro.errors import ObservabilityError
from repro.harness import ExperimentRunner, FaultPolicy, ResultCache
from repro.harness.faults import FAULTS_ENV
from repro.obs import (
    CACHE_HITS,
    CACHE_MISSES,
    FUNCTIONAL_INSTRUCTIONS,
    RUN_RETRIES,
    RUNS_COMPLETED,
    Counter,
    MetricsRegistry,
    ObsContext,
    RunManifest,
    Span,
    Tracer,
    format_trace_report,
    read_trace_jsonl,
    render_prometheus,
    run_diagnostics,
    write_trace_jsonl,
)

from .conftest import TEST_SCALE

SUITE_NAMES = ("gzip", "lucas", "mcf")


def _runner(sampling, cache_dir, jobs=1, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base", 0.0)
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        jobs=jobs,
        policy=FaultPolicy(**policy_kwargs),
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_context_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", benchmark="gzip") as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.attributes == {"benchmark": "gzip"}
        assert outer.ended and inner.ended
        assert outer.duration >= inner.duration >= 0.0

    def test_error_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.roots
        assert span.status == "error"
        assert span.error == "ValueError"
        assert span.ended

    def test_end_is_idempotent(self):
        span = Span("x")
        span.end()
        first = span.duration
        span.end()
        assert span.duration == first

    def test_roundtrip_preserves_tree(self):
        tracer = Tracer()
        with tracer.span("suite", config="a"):
            with tracer.span("run", benchmark="mcf"):
                with pytest.raises(KeyError):
                    with tracer.span("baseline"):
                        raise KeyError("x")
        rebuilt = Span.from_dict(tracer.roots[0].to_dict())
        assert [s.name for s in rebuilt.walk()] == ["suite", "run", "baseline"]
        baseline = rebuilt.children[0].children[0]
        assert baseline.status == "error" and baseline.error == "KeyError"

    def test_merge_payload_reparents_under_current(self):
        worker = Tracer()
        with worker.span("run", benchmark="gzip"):
            pass
        parent = Tracer()
        with parent.span("suite"):
            parent.merge_payload(worker.to_payload())
        (suite,) = parent.roots
        assert [c.name for c in suite.children] == ["run"]

    def test_merge_payload_outside_context_adds_roots(self):
        worker = Tracer()
        with worker.span("run"):
            pass
        parent = Tracer()
        parent.merge_payload(worker.to_payload())
        assert [r.name for r in parent.roots] == ["run"]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.counter("c_total").inc(2.5)
        assert registry.value("c_total") == 3.5
        with pytest.raises(ObservabilityError):
            registry.counter("c_total").inc(-1)

    def test_labels_key_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c_total", stage="baseline").inc()
        registry.counter("c_total", stage="profiling").inc(2)
        assert registry.value("c_total", stage="baseline") == 1
        assert registry.value("c_total", stage="profiling") == 2
        assert registry.value("c_total") == 0.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_histogram_buckets_and_merge(self):
        a = MetricsRegistry()
        h = a.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            h.observe(value)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 10.0)).observe(0.1)
        a.merge(b)
        merged = a.histogram("h", buckets=(1.0, 10.0))
        assert merged.counts == [2, 1, 1]
        assert merged.count == 4
        assert merged.sum == pytest.approx(55.6)

    def test_histogram_bound_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,))
        b = MetricsRegistry()
        b.histogram("h", buckets=(2.0,))
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_gauge_aggregations(self):
        for agg, expected in (("last", 2.0), ("sum", 5.0), ("max", 3.0),
                              ("min", 2.0)):
            a = MetricsRegistry()
            a.gauge("g", agg=agg).set(3.0)
            b = MetricsRegistry()
            b.gauge("g", agg=agg).set(2.0)
            a.merge(b)
            assert a.value("g") == expected, agg

    def test_gauge_never_set_does_not_clobber(self):
        a = MetricsRegistry()
        a.gauge("g").set(7.0)
        b = MetricsRegistry()
        b.gauge("g")  # registered but never set
        a.merge(b)
        assert a.value("g") == 7.0

    def test_dict_roundtrip_equals_merge(self):
        a = MetricsRegistry()
        a.counter("c_total", site="x").inc(4)
        a.gauge("g", agg="max").set(2.0)
        a.histogram("h").observe(0.2)
        rebuilt = MetricsRegistry.from_dict(a.to_dict())
        assert rebuilt.to_dict() == a.to_dict()

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", stage="baseline").inc(2)
        registry.histogram("repro_s", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry)
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{stage="baseline"} 2' in text
        assert "# TYPE repro_s histogram" in text
        # Cumulative buckets: 0 at <=0.1, 1 at <=1.0 and +Inf.
        assert 'repro_s_bucket{le="0.1"} 0' in text
        assert 'repro_s_bucket{le="1"} 1' in text
        assert 'repro_s_bucket{le="+Inf"} 1' in text
        assert "repro_s_sum 0.5" in text
        assert "repro_s_count 1" in text

    def test_prometheus_escapes_labels(self):
        registry = MetricsRegistry()
        registry.counter("c_total", site='we"ird\\').inc()
        text = render_prometheus(registry)
        assert r'site="we\"ird\\"' in text

    # Prometheus text-format conformance: inside a label value, backslash,
    # double-quote and newline must come out as \\, \" and \n — and
    # backslash must be escaped first so the other escapes' own
    # backslashes are not doubled.
    @pytest.mark.parametrize("raw, escaped", [
        ('say "hi"', r'say \"hi\"'),
        ("back\\slash", r"back\\slash"),
        ("line\nbreak", r"line\nbreak"),
        ('\\"', r'\\\"'),
        ("\\n", r"\\n"),  # a literal backslash-n, not a newline
        ("\n\\\"", r'\n\\\"'),
    ])
    def test_prometheus_label_escaping_conformance(self, raw, escaped):
        registry = MetricsRegistry()
        registry.counter("c_total", site=raw).inc()
        text = render_prometheus(registry)
        assert f'site="{escaped}"' in text
        # One line per sample: the newline never survives into the body.
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(body) == 1


# ----------------------------------------------------------------------
# metrics merge semantics (property-based)
# ----------------------------------------------------------------------
# One registry's worth of traffic: counter increments and histogram
# observations with a small label alphabet.  Integer-valued draws keep
# float addition exact, so associativity can be asserted as equality.
_COUNTER_OP = st.tuples(
    st.sampled_from(["c_one_total", "c_two_total"]),
    st.sampled_from(["", "x", "y"]),
    st.integers(0, 1000),
)
_HISTOGRAM_OP = st.tuples(
    st.sampled_from(["h_one", "h_two"]),
    st.integers(-5, 50),
)
_REGISTRY_OPS = st.tuples(
    st.lists(_COUNTER_OP, max_size=8),
    st.lists(_HISTOGRAM_OP, max_size=8),
)


def _registry_from(ops) -> MetricsRegistry:
    counter_ops, histogram_ops = ops
    registry = MetricsRegistry()
    for name, label, value in counter_ops:
        labels = {"site": label} if label else {}
        registry.counter(name, **labels).inc(value)
    for name, value in histogram_ops:
        registry.histogram(name, buckets=(0.0, 10.0)).observe(value)
    return registry


def _merged(*ops_sequence) -> dict:
    target = _registry_from(ops_sequence[0])
    for ops in ops_sequence[1:]:
        target.merge(_registry_from(ops))
    return target.to_dict()


class TestMergeProperties:
    @given(a=_REGISTRY_OPS, b=_REGISTRY_OPS, c=_REGISTRY_OPS)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = _registry_from(a)
        left.merge(_registry_from(b))
        left.merge(_registry_from(c))
        bc = _registry_from(b)
        bc.merge(_registry_from(c))
        right = _registry_from(a)
        right.merge(bc)
        assert left.to_dict() == right.to_dict()

    @given(a=_REGISTRY_OPS, b=_REGISTRY_OPS, c=_REGISTRY_OPS)
    @settings(max_examples=60, deadline=None)
    def test_merge_order_does_not_matter(self, a, b, c):
        # Counter sums and histogram bucket counts are commutative, so
        # the workers' shipping order must never change suite totals.
        assert _merged(a, b, c) == _merged(a, c, b)

    @given(a=_REGISTRY_OPS)
    @settings(max_examples=30, deadline=None)
    def test_merge_of_empty_is_identity(self, a):
        target = _registry_from(a)
        before = target.to_dict()
        target.merge(MetricsRegistry())
        assert target.to_dict() == before


# ----------------------------------------------------------------------
# instrumented harness
# ----------------------------------------------------------------------
class TestHarnessInstrumentation:
    def test_retried_run_has_one_span_per_attempt(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:0")
        runner = _runner(test_sampling, tmp_path / "cache", max_retries=1)
        outcome = runner.run_suite(CONFIG_A, names=["gzip"], journal=False)
        assert outcome.ok
        (suite,) = runner.obs.tracer.roots
        runs = [s for s in suite.children if s.name == "run"]
        assert [r.attributes["attempt"] for r in runs] == [0, 1]
        failed, retried = runs
        assert failed.status == "error"
        (bad_stage,) = [c for c in failed.children if c.status == "error"]
        assert bad_stage.name == "detailed_simulation"
        assert bad_stage.attributes["attempt"] == 0
        assert retried.status == "ok"
        assert all(c.attributes["attempt"] == 1 for c in retried.children)
        assert runner.obs.metrics.value(RUN_RETRIES) == 1
        assert runner.obs.metrics.value(RUNS_COMPLETED) == 1

    def test_parallel_metrics_equal_serial(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)

        def counter_totals(runner):
            # Dispatch transport counters (repro_dispatch_*) are the one
            # deliberate serial/parallel difference: only jobs > 1 hands
            # out leases. All *work* counters must still match exactly.
            return {
                (name, labels): metric.value
                for name, labels, metric in runner.obs.metrics.samples()
                if metric.kind == "counter"
                and not name.startswith("repro_dispatch_")
            }

        def diag_dicts(runner):
            return {
                key: {name: diag.to_dict() for name, diag in diags.items()}
                for key, diags in
                run_diagnostics(runner.obs.tracer.spans()).items()
            }

        serial = _runner(test_sampling, tmp_path / "serial")
        serial.run_suite(CONFIG_A, names=list(SUITE_NAMES), journal=False)
        parallel = _runner(test_sampling, tmp_path / "parallel", jobs=2)
        parallel.run_suite(CONFIG_A, names=list(SUITE_NAMES), jobs=2,
                           journal=False)
        assert counter_totals(parallel) == counter_totals(serial)
        assert parallel.obs.metrics.value(FUNCTIONAL_INSTRUCTIONS) > 0
        # The worker run spans carry the same diagnostics to the driver.
        assert diag_dicts(parallel) == diag_dicts(serial)
        assert len(diag_dicts(serial)) == len(SUITE_NAMES)
        # One lease per run, and none on the serial path.
        assert parallel.obs.metrics.value("repro_dispatch_leases_total") \
            == len(SUITE_NAMES)
        assert serial.obs.metrics.value("repro_dispatch_leases_total") == 0

    def test_parallel_spans_reparent_under_suite(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "cache", jobs=2)
        runner.run_suite(CONFIG_A, names=list(SUITE_NAMES), jobs=2,
                         journal=False)
        (suite,) = runner.obs.tracer.roots
        runs = [s for s in suite.children if s.name == "run"]
        assert sorted(r.attributes["benchmark"] for r in runs) == \
            sorted(SUITE_NAMES)
        for run in runs:
            assert {c.name for c in run.children} >= {"detailed_simulation"}

    def test_cache_counters_live_on_registry(self, tmp_path, test_sampling,
                                             monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "cache")
        runner.run_benchmark("gzip", CONFIG_A)
        rerun = _runner(test_sampling, tmp_path / "cache")
        rerun.run_benchmark("gzip", CONFIG_A)
        assert runner.cache.misses == 1 and runner.cache.hits == 0
        assert rerun.cache.hits == 1 and rerun.cache.misses == 0
        # The properties and the registry are the same numbers.
        assert rerun.obs.metrics.value(CACHE_HITS) == rerun.cache.hits
        assert runner.obs.metrics.value(CACHE_MISSES) == runner.cache.misses

    def test_bind_metrics_carries_existing_counts(self):
        cache = ResultCache(enabled=False)
        cache.metrics.counter(CACHE_HITS).inc(3)
        shared = MetricsRegistry()
        cache.bind_metrics(shared)
        assert cache.hits == 3
        assert shared.value(CACHE_HITS) == 3
        cache.bind_metrics(shared)  # idempotent: no double counting
        assert cache.hits == 3

    def test_manifest_outcome_agrees_with_run_spans(
            self, tmp_path, test_sampling, monkeypatch):
        """The manifest's outcome layout, and its cache and wall numbers
        read from the same run and suite spans ``--timing`` renders."""
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "cache")
        runner.run_suite(CONFIG_A, names=["gzip"], journal=False)
        outcome = runner.run_suite(CONFIG_A, names=["gzip"], journal=False)
        manifest = RunManifest.collect(
            runner, config=CONFIG_A, names=["gzip"], outcome=outcome
        )
        assert sorted(manifest.outcome) == [
            "cache_hits", "cache_misses", "completed", "failed",
            "failures", "wall_seconds",
        ]
        spans = list(runner.obs.tracer.spans())
        runs = [s for s in spans if s.name == "run"]
        assert manifest.outcome["cache_hits"] + \
            manifest.outcome["cache_misses"] == len(runs) == 2
        assert manifest.outcome["cache_hits"] == 1
        assert manifest.outcome["wall_seconds"] == sum(
            s.duration for s in spans if s.name == "suite"
        )
        assert manifest.jobs == 1


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def _context(self):
        obs = ObsContext()
        with obs.tracer.span("suite", config="a"):
            with obs.tracer.span("run", benchmark="gzip", attempt=0):
                pass
        obs.metrics.counter("repro_x_total").inc(2)
        obs.metrics.histogram("repro_s").observe(0.01)
        return obs

    def test_jsonl_roundtrip(self, tmp_path):
        obs = self._context()
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(
            path, obs.tracer, obs.metrics, {"config_name": "a"}
        )
        lines = path.read_text().splitlines()
        assert count == len(lines)
        assert json.loads(lines[0])["type"] == "manifest"
        dump = read_trace_jsonl(path)
        assert dump.manifest["config_name"] == "a"
        assert [s.name for s in dump.spans()] == ["suite", "run"]
        assert dump.metrics.value("repro_x_total") == 2

    def test_read_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            read_trace_jsonl(bad)
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text(json.dumps(
            {"type": "span", "id": 2, "parent": 99, "name": "x",
             "started_at": 0, "duration": 0, "status": "ok"}
        ) + "\n")
        with pytest.raises(ObservabilityError):
            read_trace_jsonl(orphan)

    def test_report_renders_tree_and_counters(self, tmp_path):
        obs = self._context()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, obs.tracer, obs.metrics,
                          {"config_name": "a", "repro_version": "1.0.0"})
        report = format_trace_report(read_trace_jsonl(path))
        assert "suite" in report and "run" in report
        assert "benchmark=gzip" in report
        assert "repro_x_total = 2" in report

    def test_report_renders_metrics_only_dump(self, tmp_path):
        """A dump with no spans (gauges/histograms only) still renders."""
        registry = MetricsRegistry()
        registry.gauge("repro_diag_phase_error",
                       benchmark="gzip", method="coasts",
                       phase="0", metric="cpi").set(0.25)
        registry.gauge("repro_diag_phase_error",
                       benchmark="gzip", method="coasts",
                       phase="1", metric="cpi").set(-0.5)
        registry.gauge("repro_lonely").set(7.0)
        registry.histogram("repro_s").observe(0.25)
        tracer = Tracer()  # no spans at all
        path = tmp_path / "metrics.jsonl"
        write_trace_jsonl(path, tracer, registry)
        report = format_trace_report(read_trace_jsonl(path))
        assert "0 root span(s)" in report
        # Wide gauge families aggregate; singletons print their value.
        assert "repro_diag_phase_error: 2 series, min -0.5, max 0.25" \
            in report
        assert "repro_lonely = 7" in report
        assert "repro_s" in report and "count 1" in report

    def test_report_depth_limit(self, tmp_path):
        obs = self._context()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, obs.tracer, obs.metrics)
        report = format_trace_report(read_trace_jsonl(path), max_depth=0)
        tree_lines = [l for l in report.splitlines() if "run (" in l]
        assert not tree_lines


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_collect_and_roundtrip(self, tmp_path, test_sampling,
                                   monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise:gzip:detailed_simulation:5")
        runner = _runner(test_sampling, tmp_path / "cache")
        outcome = runner.run_suite(CONFIG_A, names=["gzip", "mcf"],
                                   journal=False)
        manifest = RunManifest.collect(
            runner, config=CONFIG_A, names=["gzip", "mcf"], outcome=outcome
        )
        assert manifest.config_name == CONFIG_A.name
        assert manifest.benchmarks == ["gzip", "mcf"]
        assert set(manifest.seeds) == {"gzip", "mcf"}
        assert manifest.fault_spec == "raise:gzip:detailed_simulation:5"
        assert manifest.outcome["completed"] == 2
        assert manifest.policy["max_retries"] == runner.policy.max_retries
        path = tmp_path / "manifest.json"
        manifest.write(path)
        assert RunManifest.load(path) == manifest

    def test_digests_track_inputs(self, tmp_path, test_sampling):
        a = _runner(test_sampling, tmp_path / "a")
        b = _runner(test_sampling, tmp_path / "b")
        ma = RunManifest.collect(a, config=CONFIG_A)
        mb = RunManifest.collect(b, config=CONFIG_A)
        assert ma.config_digest == mb.config_digest
        assert ma.sampling_digest == mb.sampling_digest

    def test_from_dict_ignores_unknown_keys(self):
        manifest = RunManifest.from_dict(
            {"config_name": "x", "not_a_field": 1}
        )
        assert manifest.config_name == "x"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_obs_flags_write_artifacts_and_report_renders(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        manifest = tmp_path / "manifest.json"
        code = main([
            "--scale", "0.08", "run", "gzip",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--manifest-out", str(manifest),
        ])
        assert code == 0
        capsys.readouterr()
        assert "repro_runs_completed_total" not in metrics.read_text()
        assert "repro_cache_misses_total 1" in metrics.read_text()
        assert RunManifest.load(manifest).benchmarks == ["gzip"]

        code = main(["obs", "report", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "benchmark=gzip" in out
        assert "plan_construction" in out

    def test_obs_report_missing_file_is_usage_error(self, capsys, tmp_path):
        for sub in ("report", "diag"):
            code = main(["obs", sub, str(tmp_path / "nope.jsonl")])
            assert code == 2, sub
            assert "no such trace file" in capsys.readouterr().err

    def test_obs_report_corrupt_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        for sub in ("report", "diag"):
            code = main(["obs", sub, str(bad)])
            assert code == 1, sub
            assert "error:" in capsys.readouterr().err
