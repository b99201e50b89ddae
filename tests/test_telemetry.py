"""Tests for the live telemetry plane (PR 10).

Covers the worker-side delta encoder and the driver-side exactly-once
fold (duplicates dropped, gaps poison, resolve reconciles against the
committed payload), stitched span identity across the task-payload
codec, HELP text in the Prometheus exposition, the flight recorder, the
folded-stack exporter, the HTTP endpoints — and the two headline pins:
a running campaign can be scraped mid-flight, and at completion the
live registry equals the post-hoc merged registry byte for byte, with
and without injected dispatch faults.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import CONFIG_A
from repro.harness import (
    DispatchPool,
    ExperimentRunner,
    FaultPolicy,
    ResultCache,
)
from repro.harness.faults import FAULTS_ENV
from repro.obs import (
    EventLog,
    LiveRegistry,
    MetricsDeltaEncoder,
    MetricsRegistry,
    ObsContext,
    Span,
    TELEMETRY_DELTAS,
    TELEMETRY_DROPPED,
    TelemetryPlane,
    TelemetryServer,
    Tracer,
    folded_stacks,
    format_event,
    help_text,
    match_event,
    parse_filters,
    read_events,
    read_trace_jsonl,
    register_help,
    render_prometheus,
    trace_report_json,
    write_trace_jsonl,
)

from .conftest import TEST_SCALE

SUITE_NAMES = ("gzip", "lucas")


def _runner(sampling, cache_dir, **policy_kwargs):
    policy_kwargs.setdefault("backoff_base", 0.0)
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
        policy=FaultPolicy(**policy_kwargs),
    )


def _payload(outcome):
    return [json.dumps(run.to_dict(), sort_keys=True) for run in outcome]


def _attach_plane(runner):
    plane = TelemetryPlane(runner.obs, events=EventLog())
    runner.telemetry = plane
    return plane


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


# ----------------------------------------------------------------------
# delta encoder
# ----------------------------------------------------------------------
class TestMetricsDeltaEncoder:
    def test_quiescent_registry_yields_none(self):
        encoder = MetricsDeltaEncoder(MetricsRegistry())
        assert encoder.next_delta() is None
        assert encoder.seq == 0

    def test_counter_deltas_are_arithmetic_diffs(self):
        registry = MetricsRegistry()
        encoder = MetricsDeltaEncoder(registry)
        registry.counter("repro_x_total").inc(3)
        first = encoder.next_delta()
        assert first["seq"] == 1
        (item,) = first["metrics"]
        assert item == {"name": "repro_x_total", "kind": "counter",
                        "labels": {}, "value": 3.0}
        registry.counter("repro_x_total").inc(2)
        second = encoder.next_delta()
        assert second["seq"] == 2
        assert second["metrics"][0]["value"] == 2.0
        assert encoder.next_delta() is None  # nothing changed since

    def test_histogram_deltas_diff_buckets_sum_count(self):
        registry = MetricsRegistry()
        encoder = MetricsDeltaEncoder(registry)
        hist = registry.histogram("repro_s", buckets=(0.1, 1.0))
        hist.observe(0.05)
        encoder.next_delta()
        hist.observe(0.5)
        delta = encoder.next_delta()
        (item,) = delta["metrics"]
        assert item["kind"] == "histogram"
        assert item["count"] == 1
        assert item["sum"] == pytest.approx(0.5)
        assert sum(item["counts"]) == 1

    def test_gauge_ships_full_state(self):
        registry = MetricsRegistry()
        encoder = MetricsDeltaEncoder(registry)
        registry.gauge("repro_g", agg="max").set(4.0)
        (item,) = encoder.next_delta()["metrics"]
        assert item["kind"] == "gauge"
        assert item["agg"] == "max"
        assert item["value"] == 4.0


# ----------------------------------------------------------------------
# live registry: exactly-once folding
# ----------------------------------------------------------------------
class TestLiveRegistry:
    def _delta(self, seq, value):
        return {"seq": seq, "metrics": [
            {"name": "repro_x_total", "kind": "counter", "labels": {},
             "value": value},
        ]}

    def test_fold_applies_in_sequence(self):
        live = LiveRegistry(MetricsRegistry())
        assert live.fold("s", self._delta(1, 2.0))
        assert live.fold("s", self._delta(2, 3.0))
        assert live.snapshot().value("repro_x_total") == 5.0
        assert live.deltas_folded == 2

    def test_duplicate_and_reordered_deltas_dropped(self):
        live = LiveRegistry(MetricsRegistry())
        assert live.fold("s", self._delta(1, 2.0))
        assert not live.fold("s", self._delta(1, 2.0))  # duplicate
        assert not live.fold("s", {"seq": 0, "metrics": []})  # stale
        assert live.snapshot().value("repro_x_total") == 2.0
        assert live.deltas_dropped == 2
        assert live.base.value(TELEMETRY_DROPPED) == 2.0

    def test_gap_poisons_the_stream(self):
        live = LiveRegistry(MetricsRegistry())
        live.fold("s", self._delta(1, 2.0))
        assert not live.fold("s", self._delta(3, 9.0))  # gap: 2 missing
        # Partial sums would be wrong: pending state is cleared and
        # later deltas ignored until resolve reconciles.
        assert live.snapshot().value("repro_x_total") == 0.0
        assert not live.fold("s", self._delta(4, 1.0))

    def test_malformed_delta_dropped(self):
        live = LiveRegistry(MetricsRegistry())
        assert not live.fold("s", {"metrics": []})
        assert not live.fold("s", {"seq": "nope"})
        assert live.deltas_dropped == 2

    def test_resolve_replaces_pending_with_committed_payload(self):
        base = MetricsRegistry()
        live = LiveRegistry(base)
        live.fold("s", self._delta(1, 2.0))
        # The committed payload is a superset of the streamed deltas.
        final = MetricsRegistry()
        final.counter("repro_x_total").inc(5.0)
        live.resolve("s", merge=lambda: base.merge(final))
        snap = live.snapshot()
        assert snap.value("repro_x_total") == 5.0
        assert live.pending_streams() == []

    def test_straggler_after_resolve_cannot_resurrect_stream(self):
        live = LiveRegistry(MetricsRegistry())
        live.fold("s", self._delta(1, 2.0))
        live.resolve("s")
        assert not live.fold("s", self._delta(2, 7.0))
        assert live.snapshot().value("repro_x_total") == 0.0

    def test_discard_drops_partial_deltas(self):
        live = LiveRegistry(MetricsRegistry())
        live.fold("s", self._delta(1, 2.0))
        live.discard("s")
        assert live.snapshot().value("repro_x_total") == 0.0
        assert not live.fold("s", self._delta(2, 1.0))

    def test_completion_equality_after_stream_and_resolve(self):
        # End-to-end encoder -> fold -> resolve: the live snapshot at
        # completion must equal the post-hoc merged registry exactly.
        worker = MetricsRegistry()
        encoder = MetricsDeltaEncoder(worker)
        base = MetricsRegistry()
        live = LiveRegistry(base)
        for step in range(3):
            worker.counter("repro_x_total").inc(step + 1)
            worker.histogram("repro_s", buckets=(0.1, 1.0)).observe(0.2)
            live.fold("s", encoder.next_delta())
        final = MetricsRegistry.from_dict(worker.to_dict())
        live.resolve("s", merge=lambda: base.merge(final))
        # Folded-delta bookkeeping lands on the base registry itself, so
        # the committed state and the live view agree to the byte.
        post_hoc = MetricsRegistry.from_dict(base.to_dict())
        assert (render_prometheus(live.snapshot())
                == render_prometheus(post_hoc))


# ----------------------------------------------------------------------
# span identity and trace stitching
# ----------------------------------------------------------------------
class TestSpanIdentity:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer()
        with tracer.span("suite") as suite:
            with tracer.span("run") as run:
                pass
        assert suite.span_id == "main:1"
        assert run.span_id == "main:2"
        assert run.parent_id == "main:1"
        assert suite.trace_id == run.trace_id == "T-main"
        assert suite.parent_id is None

    def test_from_dict_roundtrip_preserves_ids(self):
        tracer = Tracer()
        with tracer.span("suite"):
            with tracer.span("run"):
                pass
        (root,) = tracer.roots
        clone = Span.from_dict(root.to_dict())
        assert clone.span_id == root.span_id
        assert clone.trace_id == root.trace_id
        assert clone.children[0].parent_id == root.span_id

    def test_legacy_dump_without_ids_still_loads(self):
        span = Span("old")
        payload = span.to_dict()
        assert "span_id" not in payload  # legacy shape unchanged
        clone = Span.from_dict(payload)
        assert clone.span_id is None

    def test_adopted_context_stitches_worker_under_suite(self):
        driver = Tracer()
        with driver.span("suite") as suite:
            context = driver.export_context("gzip:config_a:a0")
        worker = Tracer()
        worker.adopt_context(**context)
        with worker.span("run", benchmark="gzip") as run:
            pass
        assert run.trace_id == suite.trace_id
        assert run.parent_id == suite.span_id
        assert run.span_id.startswith("gzip:config_a:a0:")

    def test_trace_jsonl_roundtrip_preserves_ids(self, tmp_path):
        obs = ObsContext()
        with obs.tracer.span("suite"):
            with obs.tracer.span("run"):
                pass
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, obs.tracer, obs.metrics, {})
        dump = read_trace_jsonl(path)
        (root,) = dump.roots
        assert root.span_id == "main:1"
        assert root.children[0].parent_id == "main:1"
        assert root.trace_id == "T-main"

    def test_dispatched_worker_spans_carry_identity(
            self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "cache")
        pool = DispatchPool(workers=2)
        runner.run_suite(CONFIG_A, names=["gzip"], pool=pool)
        (suite,) = runner.obs.tracer.roots
        (run,) = [s for s in suite.children if s.name == "run"]
        # The worker adopted the exported context: its root pre-points
        # at the owning suite span and shares the driver's trace id.
        assert run.parent_id == suite.span_id
        assert run.trace_id == suite.trace_id
        assert run.span_id.startswith("gzip:config_a:a0:")
        assert run.attributes.get("worker") == "w0"
        assert run.attributes.get("host")
        assert run.attributes.get("pid")


# ----------------------------------------------------------------------
# HELP text (satellite 1)
# ----------------------------------------------------------------------
class TestHelpText:
    def test_help_precedes_type_for_every_family(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_completed_total").inc()
        registry.histogram("repro_stage_seconds", benchmark="gzip") \
            .observe(0.1)
        registry.gauge("repro_custom_thing").set(1.0)
        lines = render_prometheus(registry).splitlines()
        for index, line in enumerate(lines):
            if line.startswith("# TYPE"):
                name = line.split()[2]
                assert lines[index - 1].startswith(f"# HELP {name} "), \
                    f"no HELP before TYPE for {name}"

    def test_registered_help_is_used_and_fallback_exists(self):
        register_help("repro_test_metric", "A   test\nmetric.")
        assert help_text("repro_test_metric") == "A test metric."
        assert "no help registered" in help_text("repro_unheard_of")

    def test_known_constants_have_real_help(self):
        for name in ("repro_runs_completed_total", "repro_cache_hits_total",
                     "repro_dispatch_leases_total",
                     TELEMETRY_DELTAS, TELEMETRY_DROPPED):
            assert "no help registered" not in help_text(name)


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestEventLog:
    def test_ring_is_bounded_and_ordered(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("retry", attempt=index)
        events = log.tail()
        assert [e["attempt"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert len(log) == 3

    def test_tail_filters_and_limits(self):
        log = EventLog()
        log.emit("cache_hit", benchmark="gzip")
        log.emit("cache_miss", benchmark="gzip")
        log.emit("cache_hit", benchmark="lucas")
        hits = log.tail(filters={"kind": "cache_hit"})
        assert [e["benchmark"] for e in hits] == ["gzip", "lucas"]
        assert len(log.tail(limit=1)) == 1

    def test_sink_appends_jsonl_and_reads_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink=path)
        log.emit("suite_begin", runs=2)
        log.emit("suite_end")
        log.close()
        records = read_events(path)
        assert [r["kind"] for r in records] == ["suite_begin", "suite_end"]
        assert records[0]["runs"] == 2

    def test_parse_filters_and_match(self):
        filters = parse_filters(["retry", "benchmark=gzip"])
        assert filters == {"kind": "retry", "benchmark": "gzip"}
        assert match_event({"kind": "retry", "benchmark": "gzip"}, filters)
        assert not match_event({"kind": "retry"}, filters)

    def test_format_event_is_one_line(self):
        line = format_event(
            {"seq": 7, "ts": 0.0, "kind": "retry", "benchmark": "gzip"}
        )
        assert line.startswith("#    7 ")
        assert "retry" in line and "benchmark=gzip" in line
        assert "\n" not in line


# ----------------------------------------------------------------------
# flamegraph export
# ----------------------------------------------------------------------
class TestFlame:
    def _span(self, name, duration, children=(), **attrs):
        span = Span(name, attributes=dict(attrs))
        span.duration = duration
        span.children = list(children)
        return span

    def test_folded_stacks_compute_self_time(self):
        child = self._span("stage", 0.3)
        root = self._span("run", 1.0, children=[child], benchmark="gzip")
        lines = folded_stacks([root])
        # Root self time = 1.0s - 0.3s child = 0.7s; in microseconds.
        assert "run[gzip] 700000" in lines
        assert "run[gzip];stage 300000" in lines

    def test_identical_stacks_sum(self):
        spans = [self._span("run", 1.0), self._span("run", 0.5)]
        assert folded_stacks(spans) == ["run 1500000"]

    def test_negative_self_time_clamps_to_zero(self):
        # A re-parented worker child can overlap its parent; the
        # parent's self time clamps to zero (and is omitted) instead of
        # going negative.
        child = self._span("stage", 2.0)
        root = self._span("run", 1.0, children=[child])
        assert folded_stacks([root]) == ["run;stage 2000000"]


# ----------------------------------------------------------------------
# machine-readable report (satellite 2)
# ----------------------------------------------------------------------
class TestTraceReportJson:
    def test_report_json_shape(self, tmp_path):
        obs = ObsContext()
        with obs.tracer.span("suite"):
            with obs.tracer.span("run", benchmark="gzip"):
                pass
        obs.metrics.counter("repro_x_total").inc(2)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, obs.tracer, obs.metrics, {"kind": "test"})
        payload = trace_report_json(read_trace_jsonl(path))
        assert payload["manifest"]["kind"] == "test"
        (root,) = payload["spans"]
        assert root["name"] == "suite"
        assert root["children"][0]["span_id"] == "main:2"
        assert payload["span_totals"]["run"]["count"] == 1
        assert any(m["name"] == "repro_x_total"
                   for m in payload["metrics"])
        json.dumps(payload)  # the whole document is JSON-native


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
class TestTelemetryServer:
    def _plane(self):
        obs = ObsContext()
        obs.metrics.counter("repro_runs_completed_total").inc(2)
        plane = TelemetryPlane(obs)
        plane.events.emit("suite_begin", runs=2)
        plane.progress.begin_suite(2)
        return plane

    def test_endpoints_serve_live_state(self):
        plane = self._plane()
        server = TelemetryServer(plane)
        port = server.start()
        try:
            base = f"http://127.0.0.1:{port}"
            body = _get(f"{base}/metrics")
            assert "repro_runs_completed_total 2" in body
            assert "# HELP repro_runs_completed_total" in body
            health = json.loads(_get(f"{base}/healthz"))
            assert health == {"status": "ok", "phase": "running"}
            progress = json.loads(_get(f"{base}/progress"))
            assert progress["runs"]["total"] == 2
            assert progress["counters"]["runs_completed"] == 2.0
            events = json.loads(_get(f"{base}/events"))
            assert events["events"][0]["kind"] == "suite_begin"
            server.mark_done()
            assert json.loads(_get(f"{base}/healthz"))["phase"] == "done"
        finally:
            server.stop()

    def test_unknown_route_is_404(self):
        server = TelemetryServer(self._plane())
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://127.0.0.1:{port}/nope")
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_scrape_reflects_live_folds(self):
        plane = self._plane()
        server = TelemetryServer(plane)
        port = server.start()
        try:
            plane.live.fold("s", {"seq": 1, "metrics": [
                {"name": "repro_x_total", "kind": "counter", "labels": {},
                 "value": 4.0},
            ]})
            body = _get(f"http://127.0.0.1:{port}/metrics")
            assert "repro_x_total 4" in body
            progress = json.loads(_get(f"http://127.0.0.1:{port}/progress"))
            assert progress["pending_streams"] == ["s"]
        finally:
            server.stop()


# ----------------------------------------------------------------------
# live plane over real campaigns (the headline pins; satellite 4)
# ----------------------------------------------------------------------
class TestLiveCampaign:
    @pytest.fixture
    def serial_payload(self, tmp_path, test_sampling, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "serial-ref")
        return _payload(runner.run_suite(CONFIG_A, names=SUITE_NAMES))

    def _assert_live_equals_post_hoc(self, runner, plane):
        live = render_prometheus(plane.live.snapshot())
        post_hoc = render_prometheus(runner.obs.metrics)
        assert live == post_hoc
        assert plane.live.pending_streams() == []

    def test_local_pool_streams_and_reconciles(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "pool")
        plane = _attach_plane(runner)
        outcome = runner.run_suite(CONFIG_A, names=SUITE_NAMES, jobs=2)
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        self._assert_live_equals_post_hoc(runner, plane)
        kinds = {e["kind"] for e in plane.events.tail()}
        assert {"suite_begin", "run_done", "suite_end"} <= kinds
        assert plane.progress.to_dict()["runs"]["done"] == len(SUITE_NAMES)

    def test_dispatched_clean_live_equals_post_hoc(
            self, tmp_path, test_sampling, monkeypatch, serial_payload):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "dispatched")
        plane = _attach_plane(runner)
        outcome = runner.run_suite(
            CONFIG_A, names=SUITE_NAMES, pool=DispatchPool(workers=2)
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        self._assert_live_equals_post_hoc(runner, plane)
        kinds = {e["kind"] for e in plane.events.tail()}
        assert {"worker_spawn", "lease_grant", "lease_commit"} <= kinds

    @pytest.mark.parametrize("fault,policy_kwargs", [
        ("worker_exit:gzip:*:0", {"max_retries": 2}),
        ("heartbeat_drop:gzip:*:0", {"max_retries": 2}),
        ("partition:gzip:*:0", {"max_retries": 2}),
    ])
    def test_faulted_dispatch_never_double_counts(
            self, tmp_path, test_sampling, monkeypatch, serial_payload,
            fault, policy_kwargs):
        # A reclaimed-and-stolen run's partial deltas must be dropped
        # and its re-run's committed payload counted exactly once: the
        # final live state equals the post-hoc export byte for byte,
        # and results stay byte-identical to serial.
        monkeypatch.setenv(FAULTS_ENV, fault)
        runner = _runner(
            test_sampling, tmp_path / "faulted", **policy_kwargs
        )
        plane = _attach_plane(runner)
        lease_timeout = 0.5 if "heartbeat_drop" in fault else 2.0
        outcome = runner.run_suite(
            CONFIG_A, names=SUITE_NAMES,
            pool=DispatchPool(workers=2, lease_timeout=lease_timeout),
        )
        assert outcome.ok
        assert _payload(outcome) == serial_payload
        self._assert_live_equals_post_hoc(runner, plane)

    def test_midrun_scrape_of_dispatched_suite(
            self, tmp_path, test_sampling, monkeypatch):
        # The hard constraint: /metrics answers *while* the campaign
        # runs, and committed counters are monotone across scrapes.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        runner = _runner(test_sampling, tmp_path / "scrape")
        plane = _attach_plane(runner)
        server = TelemetryServer(plane)
        port = server.start()
        scrapes = []
        stop = threading.Event()

        def scraper():
            while not stop.is_set():
                scrapes.append((
                    _get(f"http://127.0.0.1:{port}/metrics"),
                    json.loads(_get(f"http://127.0.0.1:{port}/progress")),
                ))
                stop.wait(0.2)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        try:
            outcome = runner.run_suite(
                CONFIG_A, names=SUITE_NAMES, pool=DispatchPool(workers=2)
            )
        finally:
            stop.set()
            thread.join(timeout=10)
            server.stop()
        assert outcome.ok
        assert scrapes, "no scrape completed while the suite ran"
        completions = [
            progress["counters"]["runs_completed"]
            for _, progress in scrapes
        ]
        assert completions == sorted(completions)  # monotone
        assert any(progress["phase"] == "running"
                   for _, progress in scrapes)
