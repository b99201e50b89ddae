"""Command-line interface.

Three subcommands drive the library without writing Python::

    python -m repro run gzip                  # one benchmark, all methods
    python -m repro run gzip --methods coasts multilevel
    python -m repro suite --config b          # whole-suite summary table
    python -m repro suite --jobs 4 --timing   # 4 worker processes + stage report
    python -m repro leaderboard --quick       # rank every registered sampler
    python -m repro experiment fig3           # regenerate a paper table/figure
    python -m repro suite --trace-out t.jsonl # + span/metric event log
    python -m repro obs report t.jsonl        # render a recorded trace
    python -m repro obs diag t.jsonl          # per-phase error budgets
    python -m repro obs history               # past runs (.repro_history/)
    python -m repro obs diff prev last        # regression check, exit 1
    python -m repro bench                     # analysis microbenchmarks
    python -m repro bench --compare benchmarks/BENCH_baseline.json

Every ``run``/``suite``/``bench`` invocation appends one record to the
cross-run history (``.repro_history/``, or ``$REPRO_HISTORY_DIR``;
``--no-history`` opts out), which is what ``obs history``/``obs diff``
read.

``--jobs N`` (N > 1) runs the per-benchmark pipelines on N
``python -m repro.harness.worker`` subprocesses under lease-based
dispatch; ``--launcher`` swaps in a remote launch command and
``--lease-timeout`` bounds how long a silent worker keeps its task.

Heavy artefacts are disk-cached exactly as in the benches (the
``.repro_cache`` directory, or ``$REPRO_CACHE_DIR``); the cache is safe to
share between the workers of one or several invocations.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .backend import get_backend
from .bench import (
    BENCH_WORKLOAD,
    DEFAULT_BENCH_SCALE,
    DEFAULT_REPORT_NAME,
    BenchReport,
    compare_reports,
    load_report,
    run_bench,
    select_cases,
    set_bench_workload,
)
from .config import CONFIG_A, CONFIG_B, MachineConfig
from .errors import (
    ConfigError,
    FaultSpecError,
    HarnessError,
    ObservabilityError,
    ReproError,
    TraceImportError,
)
from .obs import (
    EventLog,
    ObsContext,
    RunHistory,
    RunManifest,
    TelemetryPlane,
    TelemetryServer,
    diag_views,
    diff_records,
    follow_events,
    format_diag_report,
    format_diff,
    format_event,
    format_history,
    format_trace_report,
    match_event,
    parse_filters,
    read_events,
    read_trace_jsonl,
    record_from_bench,
    record_from_manifest,
    render_folded,
    trace_report_json,
    write_folded,
    write_prometheus,
    write_trace_jsonl,
)
from .harness import (
    DEFAULT_LEASE_TIMEOUT,
    ExperimentRunner,
    FaultPolicy,
    accuracy_experiment,
    build_leaderboard,
    campaign_experiment,
    failure_rows,
    format_table,
    granularity_experiment,
    motivation_experiment,
    speedup_experiment,
    statistics_experiment,
)
from .harness.faults import STAGE_ORDER, active_faults
from .harness.runner import BOTH_CONFIGS, timing_summary
from .samplers import registered_methods
from .workloads import benchmark_names, load_trace
from .workloads import sets as workload_sets
from .workloads import trace_import as workload_trace_import

#: Experiment names accepted by the ``experiment`` subcommand.
EXPERIMENTS = ("fig1", "fig3", "fig4", "table2", "table3", "motivation",
               "campaign")

#: Default population of ``repro experiment campaign``: the suite's
#: phase-heavy benchmarks plus a slice of every seeded family.
DEFAULT_CAMPAIGN = ("phase-heavy + fam:irregular[0:2] "
                    "+ fam:phase-heavy[0:2] + fam:input-dependent[0:2] "
                    "+ fam:multi-regime[0:2] + fam:cache-hostile[0:2]")

#: Exit code when the suite completed but some runs failed (partial
#: tables were rendered; details went to stderr).
EXIT_PARTIAL = 1

#: ``ReproError``-to-exit-code mapping: user/configuration mistakes exit
#: 2 (argparse's own convention), data errors (corrupt trace/history
#: files) exit 1, any other library error 70 (EX_SOFTWARE).  First match
#: wins.
ERROR_EXIT_CODES = (
    (ConfigError, 2),
    (HarnessError, 2),
    (FaultSpecError, 2),
    (ObservabilityError, 1),
    (TraceImportError, 1),
    (ReproError, 70),
)


def exit_code_for(error: ReproError) -> int:
    """The process exit code a library error maps to."""
    for error_class, code in ERROR_EXIT_CODES:
        if isinstance(error, error_class):
            return code
    return 70


def _config_of(name: str) -> MachineConfig:
    return {"a": CONFIG_A, "b": CONFIG_B}[name.lower()]


def _configure_logging(args: argparse.Namespace) -> None:
    """Route harness progress through ``logging`` (satisfying ``-v``).

    Parallel workers log through the same module loggers; keeping output
    on the logging machinery (instead of raw ``print``) stops interleaved
    stdout from concurrent processes.
    """
    verbose = getattr(args, "verbose", 0)
    if verbose >= 2:
        level = logging.DEBUG
    elif verbose >= 1 or getattr(args, "progress", False):
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(message)s")


def format_timing(summary: dict) -> str:
    """The ``--timing`` report of a :func:`timing_summary`."""
    totals = summary["stage_totals"]
    ordered = [stage for stage in STAGE_ORDER if stage in totals]
    busy = sum(totals.values())
    lines = [
        f"timing: {summary['runs']} runs, jobs={summary['jobs']}, "
        f"wall {summary['wall_seconds']:.2f}s, "
        f"cache {summary['cache_hits']} hit / "
        f"{summary['cache_misses']} miss"
    ]
    width = max((len(stage) for stage in ordered), default=5)
    for stage in ordered:
        seconds = totals[stage]
        share = 100.0 * seconds / busy if busy else 0.0
        lines.append(f"  {stage:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
    lines.append(f"  {'(stage total)':<{width}}  {busy:8.3f}s")
    return "\n".join(lines)


def _emit_timing(runner: ExperimentRunner, args: argparse.Namespace) -> None:
    """Print the per-stage timing report when requested."""
    if getattr(args, "timing", False):
        print(format_timing(timing_summary(runner.obs.tracer)))


def _emit_obs(
    runner: ExperimentRunner,
    args: argparse.Namespace,
    config: Optional[MachineConfig] = None,
    names: Optional[List[str]] = None,
    outcome=None,
) -> None:
    """Write the observability artefacts the flags asked for.

    All three sinks share one :class:`RunManifest` snapshot, so the
    trace header, the standalone manifest and the metrics exposition
    describe the same invocation.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    manifest_out = getattr(args, "manifest_out", None)
    if not (trace_out or metrics_out or manifest_out):
        return
    manifest = RunManifest.collect(
        runner, config=config, names=names or [], outcome=outcome
    )
    if trace_out:
        count = write_trace_jsonl(
            trace_out, runner.obs.tracer, runner.obs.metrics,
            manifest.to_dict(),
        )
        print(f"[trace: {count} records written to {trace_out}]")
    if metrics_out:
        write_prometheus(metrics_out, runner.obs.metrics)
        print(f"[metrics written to {metrics_out}]")
    if manifest_out:
        manifest.write(manifest_out)
        print(f"[manifest written to {manifest_out}]")


def _start_telemetry(
    runner: ExperimentRunner, args: argparse.Namespace
):
    """Attach the live telemetry plane when ``--serve``/``--events-out``
    ask for it; returns ``(plane, server)`` or ``None``.

    The plane folds streamed worker metrics into a live registry and
    records lifecycle events; the server (only with ``--serve``) exposes
    ``/metrics``, ``/progress``, ``/events`` and ``/healthz`` while the
    campaign runs.  Telemetry is strictly out-of-band — results are
    byte-identical with or without it.
    """
    serve_port = getattr(args, "serve", None)
    events_out = getattr(args, "events_out", None)
    if serve_port is None and events_out is None:
        return None
    plane = TelemetryPlane(runner.obs, events=EventLog(sink=events_out))
    runner.telemetry = plane
    server = None
    if serve_port is not None:
        server = TelemetryServer(plane, port=serve_port)
        server.start()
        print(f"[telemetry: {server.url}/metrics /progress /events "
              f"/healthz]", file=sys.stderr)
    return (plane, server)


def _finish_telemetry(handle, args: argparse.Namespace) -> None:
    """Flip ``/healthz`` to done, honour ``--serve-grace``, tear down.

    ``mark_done`` runs only after every artefact (``--metrics-out`` et
    al.) is written, so a scraper that observed ``phase: done`` can take
    one final ``/metrics`` sample and trust it equals the written file.
    """
    if handle is None:
        return
    plane, server = handle
    if server is not None:
        server.mark_done()
        grace = getattr(args, "serve_grace", 0.0) or 0.0
        if grace > 0:
            time.sleep(grace)
        server.stop()
    plane.close()


def _history_store(args: argparse.Namespace) -> RunHistory:
    """The history store the flags point at (default: ``.repro_history``)."""
    directory = getattr(args, "history_dir", None)
    return RunHistory(Path(directory) if directory else None)


def _append_history(
    runner: ExperimentRunner,
    args: argparse.Namespace,
    kind: str,
    config: Optional[MachineConfig] = None,
    names: Optional[List[str]] = None,
    runs=(),
    outcome=None,
    ranks=None,
) -> None:
    """Append this invocation's record to the cross-run history.

    *ranks* (leaderboard invocations) attaches the aggregate rank per
    method before the record seals, so ``obs diff`` can flag rank
    regressions.  A failed append (read-only checkout, full disk) warns
    instead of failing the run — the history is a byproduct, not the
    result.
    """
    if getattr(args, "no_history", False):
        return
    manifest = RunManifest.collect(
        runner, config=config, names=names or [], outcome=outcome
    )
    record = record_from_manifest(
        manifest, runs=runs, kind=kind, registry=runner.obs.metrics
    )
    if ranks:
        # record_from_manifest already sealed; re-open so the run_id
        # digest covers the ranks too.
        record.ranks = dict(ranks)
        record.run_id = ""
    try:
        _history_store(args).append(record)
    except OSError as error:
        print(f"warning: history not recorded: {error}", file=sys.stderr)


def _methods_of(args: argparse.Namespace):
    """The ``--methods`` selection, or ``None`` for every registered one."""
    methods = getattr(args, "methods", None)
    return tuple(methods) if methods else None


def _resolve_benchmarks(exprs) -> Optional[List[str]]:
    """Resolve ``--benchmarks`` set expressions to an ordered name list.

    Multiple expressions union (each parenthesised so operator
    precedence cannot leak between arguments); ``None``/empty means "no
    selection" and callers fall back to the suite default.
    """
    if not exprs:
        return None
    expression = (exprs[0] if len(exprs) == 1
                  else " + ".join(f"({e})" for e in exprs))
    return list(workload_sets.resolve(expression))


def _resolve_one(expression: str, flag: str) -> str:
    """Resolve *expression* to exactly one benchmark, or exit 2."""
    names = workload_sets.resolve(expression)
    if len(names) != 1:
        raise HarnessError(
            f"{flag} needs exactly one benchmark, but {expression!r} "
            f"resolves to {len(names)}: {', '.join(names[:8])}"
            f"{', ...' if len(names) > 8 else ''}"
        )
    return names[0]


def _cmd_run(args: argparse.Namespace) -> int:
    benchmark = _resolve_one(args.benchmark, "run")
    runner = ExperimentRunner(
        workload_scale=args.scale, methods=_methods_of(args)
    )
    config = _config_of(args.config)
    run = runner.run_benchmark(benchmark, config)
    print(f"{benchmark} on {config.name}: baseline CPI "
          f"{run.baseline.cpi:.3f}, L1 {run.baseline.l1_hit_rate:.4f}, "
          f"L2 {run.baseline.l2_hit_rate:.4f}")
    # The speedup column divides by SimPoint (the paper's axis) when it
    # ran; under a --methods selection without it, fall back to speedup
    # over full detailed simulation.
    over_simpoint = "simpoint" in run.methods
    rows = []
    for method, result in run.methods.items():
        speedup = (run.speedup(method) if over_simpoint
                   else run.speedup_over_full(method))
        rows.append([
            method,
            result.stats.n_leaves,
            f"{result.estimate.cpi:.3f}",
            f"{100 * result.deviation.cpi:.2f}%",
            f"{100 * result.deviation.l1_hit_rate:.2f}%",
            f"{100 * result.deviation.l2_hit_rate:.2f}%",
            f"{speedup:.2f}x",
        ])
    print(format_table(
        ["method", "points", "CPI est", "CPI dev", "L1 dev", "L2 dev",
         "speedup" if over_simpoint else "spd/full"],
        rows,
    ))
    _emit_timing(runner, args)
    _emit_obs(runner, args, config=config, names=[benchmark])
    _append_history(
        runner, args, kind="run", config=config, names=[benchmark],
        runs=[run],
    )
    return 0


def _policy_of(args: argparse.Namespace) -> FaultPolicy:
    """Build the fault policy from the ``--retries`` family of flags."""
    return FaultPolicy(
        max_retries=getattr(args, "retries", 1),
        timeout=getattr(args, "timeout", None),
        fail_fast=getattr(args, "fail_fast", False),
    )


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    runner = ExperimentRunner(
        workload_scale=args.scale,
        jobs=getattr(args, "jobs", 1),
        policy=_policy_of(args),
        methods=_methods_of(args),
    )
    runner.resume = getattr(args, "resume", False)
    runner.launcher = getattr(args, "launcher", None)
    runner.lease_timeout = getattr(args, "lease_timeout",
                                   DEFAULT_LEASE_TIMEOUT)
    return runner


def _report_failures(runner: ExperimentRunner) -> int:
    """Print the failure summary (stderr) and pick the exit code."""
    if not runner.failures:
        return 0
    print(
        f"{len(runner.failures)} run(s) failed "
        f"(rerun with --resume to re-attempt only those):",
        file=sys.stderr,
    )
    for failure in runner.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    return EXIT_PARTIAL


def _cmd_suite(args: argparse.Namespace) -> int:
    names = _resolve_benchmarks(getattr(args, "benchmarks", None))
    runner = _make_runner(args)
    config = _config_of(args.config)
    telemetry = _start_telemetry(runner, args)
    outcome = runner.run_suite(config, names=names, quick=args.quick,
                               progress=args.progress)
    # Columns follow the selected method set: one CPI-deviation column
    # per method, plus speedup-over-SimPoint columns (the paper's Figs
    # 3/4 axis) when SimPoint itself is in the set to divide by.
    dev_methods = list(runner.methods)
    spd_methods = (
        [m for m in ("coasts", "multilevel") if m in runner.methods]
        if "simpoint" in runner.methods else []
    )
    headers = (
        ["benchmark", "CPI"]
        + [f"{m} dev" for m in dev_methods]
        + [f"{m} spd" for m in spd_methods]
    )
    rows = []
    for run in outcome:
        rows.append(
            [run.benchmark, f"{run.baseline.cpi:.3f}"]
            + [f"{100 * run.methods[m].deviation.cpi:.2f}%"
               for m in dev_methods]
            + [f"{run.speedup(m):.2f}x" for m in spd_methods]
        )
    rows.extend(failure_rows(outcome.failures, width=len(headers)))
    print(format_table(
        headers,
        rows,
        title=f"suite summary ({config.name})",
    ))
    chosen = names if names is not None else \
        benchmark_names(quick=args.quick)
    _emit_timing(runner, args)
    _emit_obs(
        runner, args, config=config, names=chosen, outcome=outcome,
    )
    _append_history(
        runner, args, kind="suite", config=config,
        names=chosen, runs=list(outcome), outcome=outcome,
    )
    _finish_telemetry(telemetry, args)
    return _report_failures(runner)


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    """Rank every selected sampler by accuracy × speedup over a suite."""
    runner = _make_runner(args)
    config = _config_of(args.config)
    names = _resolve_benchmarks(args.benchmarks) or \
        benchmark_names(quick=args.quick)
    telemetry = _start_telemetry(runner, args)
    outcome = runner.run_suite(
        config, names=names, quick=args.quick, progress=args.progress
    )
    runs = list(outcome)
    if not runs:
        _report_failures(runner)
        _finish_telemetry(telemetry, args)
        print("error: no benchmark completed; nothing to rank",
              file=sys.stderr)
        return EXIT_PARTIAL
    board = build_leaderboard(runs, methods=runner.methods)
    print(board.format())
    if args.json:
        Path(args.json).write_text(
            json.dumps(board.to_dict(), indent=2) + "\n"
        )
        print(f"[leaderboard written to {args.json}]")
    _emit_timing(runner, args)
    _emit_obs(runner, args, config=config, names=names, outcome=outcome)
    _append_history(
        runner, args, kind="leaderboard", config=config, names=names,
        runs=runs, outcome=outcome, ranks=board.ranks,
    )
    _finish_telemetry(telemetry, args)
    return _report_failures(runner)


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    telemetry = _start_telemetry(runner, args)
    name = args.name
    if name in ("fig3", "fig4"):
        method = "coasts" if name == "fig3" else "multilevel"
        series = speedup_experiment(runner, method, progress=args.progress)
        rows = [[b, f"{v:.2f}x"] for b, v in series.speedups.items()]
        rows.extend(failure_rows(series.failures, width=2))
        if series.speedups:
            rows.append(["GEOMEAN", f"{series.geomean:.2f}x"])
        print(format_table(["benchmark", "speedup"], rows,
                           title=f"{name}: {method} over SimPoint"))
    elif name == "table2":
        table = accuracy_experiment(runner, BOTH_CONFIGS,
                                    progress=args.progress)
        rows = []
        for metric in table.METRICS:
            for method in table.methods:
                row = [metric, method]
                for config_name in table.config_names:
                    cell = table.cells[(metric, method, config_name)]
                    row.append(f"{100 * cell.average:.2f}%")
                    row.append(f"{100 * cell.worst:.2f}%")
                rows.append(row)
        print(format_table(
            ["metric", "method", "A avg", "A worst", "B avg", "B worst"],
            rows, title="table2: deviations",
        ))
    elif name == "table3":
        rows = [
            [r.method, f"{r.mean_interval_size:.0f}",
             f"{r.mean_sample_number:.1f}",
             f"{100 * r.mean_detail_fraction:.3f}%",
             f"{100 * r.mean_functional_fraction:.2f}%"]
            for r in statistics_experiment(runner, progress=args.progress)
        ]
        print(format_table(
            ["method", "mean interval", "samples", "detail %",
             "functional %"],
            rows, title="table3: point statistics",
        ))
    elif name == "motivation":
        rows = [
            [r.benchmark, r.phase_count,
             f"{100 * r.last_point_position:.1f}%"]
            for r in motivation_experiment(runner, progress=args.progress)
        ]
        print(format_table(
            ["benchmark", "phases", "last position"], rows,
            title="III-B motivation statistics",
        ))
    elif name == "campaign":
        expression = args.benchmark or DEFAULT_CAMPAIGN
        result = campaign_experiment(runner, expression,
                                     progress=args.progress,
                                     jobs=getattr(args, "jobs", None))
        rows = []
        for group in result.groups:
            for method in group.mean_cpi_deviation:
                rows.append([
                    group.group, len(group.benchmarks), method,
                    f"{100 * group.mean_cpi_deviation[method]:.2f}%",
                    f"{100 * group.worst_cpi_deviation[method]:.2f}%",
                ])
        rows.extend(failure_rows(result.failures, width=5))
        print(format_table(
            ["group", "n", "method", "mean CPI dev", "worst CPI dev"],
            rows, title=f"campaign: {expression}",
        ))
    elif name == "fig1":
        series = granularity_experiment(runner, args.benchmark or "lucas")
        print(format_table(
            ["curve", "intervals", "points", "roughness"],
            [
                ["fine", len(series.fine_values),
                 len(series.fine_selected), f"{series.fine_variation:.3f}"],
                ["coarse", len(series.coarse_values),
                 len(series.coarse_selected),
                 f"{series.coarse_variation:.3f}"],
            ],
            title=f"fig1: granularity on {series.benchmark}",
        ))
    _emit_timing(runner, args)
    _emit_obs(runner, args)
    _finish_telemetry(telemetry, args)
    return _report_failures(runner)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the microbenchmark suite; write and optionally compare."""
    if args.scale <= 0:
        raise HarnessError(f"scale must be > 0, got {args.scale}")
    if args.reps <= 0:
        raise HarnessError(f"reps must be >= 1, got {args.reps}")
    if getattr(args, "benchmark", None):
        set_bench_workload(_resolve_one(args.benchmark, "bench --benchmark"))
    cases = select_cases(args.filter)
    if args.list:
        for case in cases:
            print(f"{case.name}: {case.description} "
                  f"[{case.layer}: {', '.join(case.backends)}]")
        return 0

    baseline = None
    if args.compare is not None:
        # Load (and validate) the baseline before spending minutes
        # measuring, so a bad path fails fast with exit code 2.
        if args.threshold <= 0:
            raise HarnessError(
                f"threshold must be > 0, got {args.threshold}"
            )
        baseline = load_report(args.compare)

    obs = ObsContext()
    results = run_bench(
        cases, scale=args.scale, reps=args.reps, warmup=args.warmup, obs=obs
    )

    rows = []
    for result in results:
        vectorized = result.timings.get("vectorized")
        scalar = result.timings.get("scalar")
        rows.append([
            result.name,
            f"{1e3 * vectorized.best:.3f}" if vectorized else "-",
            f"{1e3 * vectorized.mean:.3f}" if vectorized else "-",
            f"{1e3 * scalar.best:.3f}" if scalar else "-",
            f"{result.speedup:.2f}x" if result.speedup is not None else "-",
        ])
    print(format_table(
        ["case", "vec best ms", "vec mean ms", "scalar best ms", "speedup"],
        rows,
        title=f"repro bench (scale {args.scale}, {args.reps} reps, "
              f"{args.warmup} warmup)",
    ))

    report = BenchReport.build(
        results, scale=args.scale,
        min_speedups=baseline.min_speedups if baseline is not None else None,
    )
    report.write(args.out)
    print(f"[bench report written to {args.out}]")
    if not getattr(args, "no_history", False):
        try:
            _history_store(args).append(record_from_bench(report))
        except OSError as error:
            print(f"warning: history not recorded: {error}", file=sys.stderr)
    if args.trace_out:
        count = write_trace_jsonl(
            args.trace_out, obs.tracer, obs.metrics, report.to_dict()
        )
        print(f"[trace: {count} records written to {args.trace_out}]")

    if baseline is not None:
        regressions = compare_reports(
            report, baseline, threshold=args.threshold, wall=args.wall
        )
        if regressions:
            print(f"{len(regressions)} perf regression(s) vs "
                  f"{args.compare}:", file=sys.stderr)
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return EXIT_PARTIAL
        print(f"no perf regressions vs {args.compare}")
    return 0


def _cmd_sets(args: argparse.Namespace) -> int:
    """List the named workload sets, or resolve a set expression."""
    if args.expression is None:
        rows = [[name, summary]
                for name, summary in workload_sets.describe_sets()]
        print(format_table(["set", "members"], rows,
                           title="named workload sets"))
        return 0
    for name in workload_sets.resolve(args.expression):
        print(name)
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Unroll one benchmark and write its run-length stream to a file."""
    benchmark = _resolve_one(args.benchmark, "trace export")
    trace = load_trace(benchmark, scale=args.scale)
    path = workload_trace_import.export_trace(
        trace, args.out, benchmark=benchmark, scale=args.scale
    )
    print(f"[{benchmark} @ scale {args.scale:g}: "
          f"{trace.n_segments} segments, "
          f"{trace.total_instructions} instructions -> {path}]")
    print(f"run it back with: repro run 'import:{path}'")
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    """Validate an external trace file and report its vital signs."""
    obs = ObsContext()
    record = workload_trace_import.load_import(
        args.path, metrics=obs.metrics
    )
    n_segments = int(record.arrays["reps"].shape[0])
    print(f"[valid {record.path}: base {record.benchmark} @ scale "
          f"{record.scale:g}, {n_segments} segments, "
          f"{record.total_instructions} instructions, "
          f"sha256 {record.digest[:16]}]")
    print(f"benchmark name: import:{args.path}")
    return 0


def _require_trace(path_text: str) -> Path:
    """Missing trace files are usage errors (exit 2), not data errors."""
    path = Path(path_text)
    if not path.exists():
        raise HarnessError(f"no such trace file: {path}")
    return path


def _cmd_obs_report(args: argparse.Namespace) -> int:
    dump = read_trace_jsonl(_require_trace(args.trace))
    if getattr(args, "json", False):
        print(json.dumps(trace_report_json(dump), indent=2))
        return 0
    print(format_trace_report(dump, max_depth=args.depth))
    return 0


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    """Serve a recorded trace dump over the live-telemetry endpoints."""
    dump = read_trace_jsonl(_require_trace(args.trace))
    obs = ObsContext()
    obs.metrics.merge(dump.metrics)
    plane = TelemetryPlane(obs)
    server = TelemetryServer(plane, port=args.port)
    server.start()
    server.mark_done()  # a recorded dump is final by definition
    print(f"[serving {args.trace} on {server.url}; Ctrl-C to stop]")
    try:
        deadline = (
            time.monotonic() + args.duration
            if args.duration is not None else None
        )
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        plane.close()
    return 0


def _cmd_obs_events(args: argparse.Namespace) -> int:
    """Print (or tail) a flight-recorder JSONL log."""
    filters = parse_filters(args.filter)
    path = Path(args.path)
    if args.follow:
        # A missing file is waited for, tail -f style: the campaign
        # being watched may not have emitted its first event yet.
        try:
            for event in follow_events(path, duration=args.duration):
                if match_event(event, filters):
                    print(format_event(event), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    if not path.exists():
        raise HarnessError(f"no such events file: {path}")
    events = [e for e in read_events(path) if match_event(e, filters)]
    if args.limit:
        events = events[-args.limit:]
    for event in events:
        print(format_event(event))
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    """Export a recorded trace as folded stacks (flamegraph input)."""
    dump = read_trace_jsonl(_require_trace(args.trace))
    if args.out:
        count = write_folded(args.out, dump)
        print(f"[{count} folded stacks written to {args.out}]")
    else:
        sys.stdout.write(render_folded(dump))
    return 0


def _cmd_obs_diag(args: argparse.Namespace) -> int:
    dump = read_trace_jsonl(_require_trace(args.trace))
    views = diag_views(dump.metrics)
    print(format_diag_report(
        views, benchmark=args.benchmark, method=args.method
    ))
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    records = _history_store(args).load()
    print(format_history(records, limit=args.limit))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    store = _history_store(args)
    records = store.load()
    a = store.resolve(args.run_a, records)
    b = store.resolve(args.run_b, records)
    diff = diff_records(a, b, threshold=args.threshold)
    print(format_diff(diff, verbose=args.all))
    if diff.regressed:
        print(
            f"{len(diff.regressed)} metric(s) regressed", file=sys.stderr
        )
        return EXIT_PARTIAL
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-level phase analysis for sampling simulation "
                    "(DATE 2013 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default: 1.0)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="progress at INFO (-v) or DEBUG (-vv) level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        # accepted both before and after the subcommand
        p.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                       help="workload scale factor (default: 1.0)")
        p.add_argument("-v", "--verbose", action="count",
                       default=argparse.SUPPRESS,
                       help="progress at INFO (-v) or DEBUG (-vv) level")
        p.add_argument("--timing", action="store_true",
                       help="print the per-stage timing report")
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the span/metric event log as JSONL to "
                            "FILE (inspect with `repro obs report`)")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics as Prometheus text "
                            "exposition to FILE")
        p.add_argument("--manifest-out", metavar="FILE", default=None,
                       help="write the run manifest (provenance record) "
                            "as JSON to FILE")

    def add_history(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-history", action="store_true",
                       help="do not append this invocation to the "
                            "cross-run history")
        p.add_argument("--history-dir", metavar="DIR", default=None,
                       help="history directory (default: .repro_history, "
                            "or $REPRO_HISTORY_DIR)")

    def add_methods(p: argparse.ArgumentParser) -> None:
        # Choices come from the sampler registry, so a sampler
        # registered by a plugin import shows up automatically.
        p.add_argument("--methods", nargs="+", metavar="METHOD",
                       choices=registered_methods(), default=None,
                       help="sampling methods to run (default: every "
                            "registered sampler: "
                            f"{', '.join(registered_methods())})")

    def add_jobs(p: argparse.ArgumentParser) -> None:
        # Worker subprocesses under lease-based dispatch (see `Parallel
        # and distributed execution` in the README).
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for per-benchmark runs "
                            "(0 = one per CPU; default: 1, in-process)")
        p.add_argument("--launcher", metavar="CMD", default=None,
                       help="worker launch command for --jobs N > 1 "
                            "(default: this python running -m "
                            "repro.harness.worker; an SSH/cluster "
                            "launcher is just a prefix, e.g. 'ssh node7 "
                            "python -m repro.harness.worker')")
        p.add_argument("--lease-timeout", type=float,
                       default=DEFAULT_LEASE_TIMEOUT, metavar="SECONDS",
                       help="reclaim a task after this long without a "
                            "worker heartbeat (default: "
                            f"{DEFAULT_LEASE_TIMEOUT:g})")

    def add_serve(p: argparse.ArgumentParser) -> None:
        # Live telemetry plane: streamed worker metrics, progress and
        # the flight recorder, scrapeable while the campaign runs.
        p.add_argument("--serve", type=int, default=None, metavar="PORT",
                       help="serve live telemetry over HTTP while the "
                            "campaign runs: /metrics (Prometheus), "
                            "/progress, /events, /healthz "
                            "(PORT 0 = ephemeral)")
        p.add_argument("--serve-grace", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep the telemetry server up this long "
                            "after the command finishes, for a final "
                            "scrape (default: 0)")
        p.add_argument("--events-out", metavar="FILE", default=None,
                       help="append flight-recorder lifecycle events as "
                            "JSONL to FILE (tail with `repro obs events "
                            "--follow`)")

    def add_fault(p: argparse.ArgumentParser) -> None:
        # Fault tolerance: failing runs are retried, then reported as
        # FAILED table rows (exit 1) instead of aborting the campaign.
        p.add_argument("--retries", type=int, default=1, metavar="N",
                       help="re-attempts per failing run (default: 1)")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-run wall-clock bound (default: none)")
        p.add_argument("--fail-fast", action="store_true",
                       help="abort the whole suite on the first run "
                            "that exhausts its retries")
        p.add_argument("--resume", action="store_true",
                       help="skip runs already checkpointed in the suite "
                            "journal; re-attempt failed/missing ones")

    run = sub.add_parser("run", help="run one benchmark with all methods")
    run.add_argument("benchmark",
                     help="benchmark name or set expression resolving to "
                          "exactly one benchmark (suite name, "
                          "fam:<family>[i], or import:<path>; see "
                          "`repro sets`)")
    run.add_argument("--config", choices=("a", "b"), default="a")
    add_methods(run)
    add_common(run)
    add_history(run)
    run.set_defaults(func=_cmd_run)

    suite = sub.add_parser("suite", help="whole-suite summary")
    suite.add_argument("--config", choices=("a", "b"), default="a")
    suite.add_argument("--progress", action="store_true")
    suite.add_argument("--quick", action="store_true",
                       help="only the quick benchmark subset")
    suite.add_argument("--benchmarks", nargs="+", metavar="EXPR",
                       default=None,
                       help="benchmark set expression(s), e.g. "
                            "'phase-heavy + fam:irregular[0:4]' "
                            "(multiple EXPRs union; overrides --quick; "
                            "see `repro sets`)")
    add_methods(suite)
    add_jobs(suite)
    add_serve(suite)
    add_fault(suite)
    add_common(suite)
    add_history(suite)
    suite.set_defaults(func=_cmd_suite)

    leaderboard = sub.add_parser(
        "leaderboard",
        help="run every registered sampler over a suite and rank them "
             "by accuracy x speedup",
    )
    leaderboard.add_argument("--config", choices=("a", "b"), default="a")
    leaderboard.add_argument("--progress", action="store_true")
    leaderboard.add_argument("--quick", action="store_true",
                             help="only the quick benchmark subset")
    leaderboard.add_argument("--benchmarks", nargs="+", metavar="EXPR",
                             default=None,
                             help="benchmark set expression(s), e.g. "
                                  "'cache-hostile - quick' (default: the "
                                  "whole suite, or --quick subset)")
    leaderboard.add_argument("--json", metavar="FILE", default=None,
                             help="also write the ranked tables as JSON "
                                  "to FILE")
    add_methods(leaderboard)
    add_jobs(leaderboard)
    add_serve(leaderboard)
    add_fault(leaderboard)
    add_common(leaderboard)
    add_history(leaderboard)
    leaderboard.set_defaults(func=_cmd_leaderboard)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--benchmark", default=None,
                            help="benchmark for fig1 (default lucas); for "
                                 "campaign, the population set expression")
    add_methods(experiment)
    experiment.add_argument("--progress", action="store_true")
    add_jobs(experiment)
    add_serve(experiment)
    add_fault(experiment)
    add_common(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    bench = sub.add_parser(
        "bench",
        help="run the analysis microbenchmark suite and record "
             "BENCH_phase_analysis.json",
    )
    bench.add_argument("--reps", type=int, default=5, metavar="N",
                       help="measured repetitions per case and backend "
                            "(default: 5)")
    bench.add_argument("--warmup", type=int, default=1, metavar="N",
                       help="unmeasured warm-up runs per case and backend "
                            "(default: 1)")
    bench.add_argument("--filter", default=None, metavar="PATTERN",
                       help="only cases whose name contains PATTERN "
                            "(glob patterns match the whole name; a "
                            "layer name selects that layer)")
    bench.add_argument("--list", action="store_true",
                       help="list the matching cases and exit")
    bench.add_argument("--benchmark", metavar="EXPR", default=None,
                       help="workload for the trace-backed cases: any "
                            "expression resolving to one benchmark "
                            f"(default: {BENCH_WORKLOAD})")
    # The bench suite has its own scale default: trace-backed cases use
    # a reduced gzip workload so a full run stays interactive.
    bench.add_argument("--scale", type=float, default=DEFAULT_BENCH_SCALE,
                       help="workload scale for the trace-backed cases "
                            f"(default: {DEFAULT_BENCH_SCALE})")
    bench.add_argument("--out", metavar="FILE", default=DEFAULT_REPORT_NAME,
                       help=f"report file (default: {DEFAULT_REPORT_NAME})")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="compare against a recorded baseline report; "
                            "regressions exit 1")
    bench.add_argument("--threshold", type=float, default=0.5,
                       metavar="FRACTION",
                       help="tolerated fractional slack for --compare; "
                            "applies to the relative ratio check and "
                            "--wall, never to the min_speedup floors "
                            "(default: 0.5)")
    bench.add_argument("--wall", action="store_true",
                       help="also compare wall-clock times (same-host "
                            "baselines only; ratio checks are always on)")
    bench.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the bench span/metric log as JSONL")
    bench.add_argument("-v", "--verbose", action="count",
                       default=argparse.SUPPRESS,
                       help="per-case progress at INFO level")
    add_history(bench)
    bench.set_defaults(func=_cmd_bench)

    sets_cmd = sub.add_parser(
        "sets",
        help="list the named workload sets, or resolve a set expression",
    )
    sets_cmd.add_argument(
        "expression", nargs="?", default=None,
        help="set expression to resolve (one benchmark name per output "
             "line); omit to list the named sets and families. Grammar: "
             "names/sets combined with + (union), - (difference, "
             "whitespace-separated), [a:b] slices and parentheses, e.g. "
             "'phase-heavy - quick + fam:irregular[0:8]'",
    )
    sets_cmd.set_defaults(func=_cmd_sets)

    trace_cmd = sub.add_parser(
        "trace",
        help="export a benchmark's run-length stream, or validate an "
             "external one for use as import:<path>",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command",
                                         required=True)
    texport = trace_sub.add_parser(
        "export",
        help="unroll one benchmark and write its segment stream "
             "(.jsonl or .npz)",
    )
    texport.add_argument("benchmark",
                         help="benchmark name or single-benchmark "
                              "expression")
    texport.add_argument("--out", metavar="FILE", required=True,
                         help="output file; .jsonl (line-per-segment) or "
                              ".npz (flat arrays)")
    texport.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                         help="workload scale to unroll at "
                              "(default: 1.0)")
    texport.set_defaults(func=_cmd_trace_export)
    timport = trace_sub.add_parser(
        "import",
        help="validate an external trace file; invalid files are "
             "rejected with exit 1",
    )
    timport.add_argument("path", help="trace file (.jsonl or .npz)")
    timport.set_defaults(func=_cmd_trace_import)

    obs = sub.add_parser("obs", help="inspect observability artefacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="render a --trace-out JSONL file as a span tree, aggregate "
             "table and counter summary",
    )
    report.add_argument("trace", help="path to a --trace-out JSONL file")
    report.add_argument("--depth", type=int, default=None, metavar="N",
                        help="limit the rendered span tree depth")
    report.add_argument("--json", action="store_true",
                        help="emit the span tree, aggregates and metrics "
                             "as one JSON document instead of text")
    report.set_defaults(func=_cmd_obs_report)

    serve = obs_sub.add_parser(
        "serve",
        help="serve a recorded --trace-out dump over the live-telemetry "
             "HTTP endpoints (/metrics, /progress, /healthz)",
    )
    serve.add_argument("trace", help="path to a --trace-out JSONL file")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="port to bind (default: 0 = ephemeral)")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="serve this long then exit (default: until "
                            "Ctrl-C)")
    serve.set_defaults(func=_cmd_obs_serve)

    events = obs_sub.add_parser(
        "events",
        help="print or tail a flight-recorder log (--events-out JSONL)",
    )
    events.add_argument("path", help="path to an --events-out JSONL file")
    events.add_argument("--follow", action="store_true",
                        help="tail -f style: wait for new events (and "
                             "for the file itself) instead of exiting")
    events.add_argument("--filter", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="only events matching every filter; a bare "
                             "word filters the event kind (repeatable)")
    events.add_argument("--limit", type=int, default=0, metavar="N",
                        help="only the N most recent events (default: "
                             "all)")
    events.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="with --follow: stop after this long "
                             "(default: until Ctrl-C)")
    events.set_defaults(func=_cmd_obs_events)

    flame = obs_sub.add_parser(
        "flame",
        help="export a recorded trace as folded stacks "
             "(flamegraph.pl / speedscope input)",
    )
    flame.add_argument("trace", help="path to a --trace-out JSONL file")
    flame.add_argument("--out", metavar="FILE", default=None,
                       help="write to FILE instead of stdout")
    flame.set_defaults(func=_cmd_obs_flame)

    diag = obs_sub.add_parser(
        "diag",
        help="render per-benchmark error budgets (per-phase error "
             "attribution and clustering-quality telemetry) from a "
             "--trace-out JSONL file",
    )
    diag.add_argument("trace", help="path to a --trace-out JSONL file")
    diag.add_argument("--benchmark", default=None,
                      help="only this benchmark")
    diag.add_argument("--method", default=None,
                      help="only this sampling method")
    diag.set_defaults(func=_cmd_obs_diag)

    history = obs_sub.add_parser(
        "history", help="list the recorded cross-run history"
    )
    history.add_argument("--limit", type=int, default=0, metavar="N",
                         help="only the N most recent records")
    add_history(history)
    history.set_defaults(func=_cmd_obs_history)

    diff = obs_sub.add_parser(
        "diff",
        help="compare two history records; accuracy regressions exit 1",
    )
    diff.add_argument("run_a", help="older record: 'last', 'prev', '~N' "
                                    "or a run_id prefix")
    diff.add_argument("run_b", help="newer record (same forms)")
    diff.add_argument("--threshold", type=float, default=1e-9,
                      metavar="DELTA",
                      help="deviation growth tolerated before a metric "
                           "counts as regressed (default: 1e-9)")
    diff.add_argument("--all", action="store_true",
                      help="also print PASS and INFO entries")
    add_history(diff)
    diff.set_defaults(func=_cmd_obs_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Library errors (:class:`ReproError`) print a one-line message and
    exit with a mapped code (see :data:`ERROR_EXIT_CODES`) instead of a
    traceback; suites that completed partially exit :data:`EXIT_PARTIAL`
    after rendering their tables.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        # A malformed $REPRO_FAULTS or $REPRO_BACKEND is a usage error
        # before any run starts, not one failed run per benchmark.
        active_faults()
        get_backend()
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
