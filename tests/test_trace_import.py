"""Golden round-trip and quarantine battery for the trace-import adapter.

* export -> import round-trips bit-identically in BOTH formats (.jsonl
  and .npz), and an end-to-end run over the imported benchmark produces
  the same plan/estimate JSON as the original — only the benchmark-name
  fields may differ;
* corrupt inputs are quarantined: TraceImportError (CLI exit 1) plus a
  counted ``repro_trace_import_rejected_total{reason=...}`` sample per
  rejection;
* the import cache is content-addressed — editing the file in place is
  picked up, not stale-served.
"""

import copy
import json

import numpy as np
import pytest

from repro.cli import main
from repro.config import CONFIG_A, CONFIG_B
from repro.errors import HarnessError, TraceImportError
from repro.harness import ExperimentRunner, ResultCache
from repro.obs.metrics import TRACE_IMPORT_REJECTED, MetricsRegistry
from repro.workloads import registry, trace_import
from repro.workloads.trace_import import (
    FORMAT_NAME,
    FORMAT_VERSION,
    export_trace,
    load_import,
)

SCALE = 0.04


@pytest.fixture(autouse=True)
def _fresh_import_cache():
    trace_import.clear_cache()
    yield
    trace_import.clear_cache()


@pytest.fixture(scope="module")
def gzip_trace():
    return registry.load_trace("gzip", scale=SCALE)


def _export(trace, path):
    return export_trace(trace, path, benchmark="gzip", scale=SCALE)


def _rewrite_jsonl(src, dst, mutate):
    """Parse, mutate and rewrite a JSONL export (header + segments)."""
    lines = [json.loads(line) for line in src.read_text().splitlines()]
    mutate(lines)
    dst.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return dst


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".jsonl", ".npz"])
    def test_arrays_bit_identical(self, suffix, gzip_trace, tmp_path):
        path = _export(gzip_trace, tmp_path / f"gzip{suffix}")
        record = load_import(str(path))
        original = gzip_trace.arrays()
        assert sorted(record.arrays) == sorted(original)
        for field, array in original.items():
            assert array.dtype == record.arrays[field].dtype
            assert array.tobytes() == record.arrays[field].tobytes(), field

    @pytest.mark.parametrize("suffix", [".jsonl", ".npz"])
    def test_imported_trace_matches_source(self, suffix, gzip_trace,
                                           tmp_path):
        path = _export(gzip_trace, tmp_path / f"gzip{suffix}")
        trace = trace_import.imported_trace(str(path))
        assert trace.total_instructions == gzip_trace.total_instructions
        assert trace.n_segments == gzip_trace.n_segments
        for field, array in gzip_trace.arrays().items():
            assert np.array_equal(array, trace.arrays()[field]), field

    def test_end_to_end_run_identical_modulo_name(self, gzip_trace,
                                                  tmp_path, test_sampling):
        path = _export(gzip_trace, tmp_path / "gzip.jsonl")
        name = f"import:{path}"

        def run_of(benchmark):
            runner = ExperimentRunner(
                sampling=test_sampling,
                cache=ResultCache(enabled=False),
                workload_scale=SCALE,
                methods=("simpoint", "coasts"),
            )
            return runner.run_benchmark(benchmark, CONFIG_A).to_dict()

        original, imported = run_of("gzip"), run_of(name)

        def normalise(payload):
            payload = copy.deepcopy(payload)
            payload["benchmark"] = "<name>"
            for diag in payload.get("diagnostics", {}).values():
                diag["benchmark"] = "<name>"
            return payload

        assert original != imported  # the names really do differ...
        assert normalise(original) == normalise(imported)  # ...only they

    def test_registry_resolves_import_names(self, gzip_trace, tmp_path):
        path = _export(gzip_trace, tmp_path / "gzip.npz")
        name = f"import:{path}"
        spec = registry.get_spec(name)
        assert spec.name == name
        assert load_import(str(path)).digest[:16] in spec.description

    def test_cache_invalidated_on_edit(self, gzip_trace, tmp_path):
        path = _export(gzip_trace, tmp_path / "gzip.jsonl")
        first = load_import(str(path))
        assert load_import(str(path)) is first  # digest-hit: cached
        # Edit in place: halve the stream (keeping it consistent would
        # be harder, so just expect the re-validation to notice).
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(TraceImportError):
            load_import(str(path))


    def test_runner_replans_an_edited_import(self, gzip_trace, tmp_path,
                                             test_sampling):
        """An import edited between two configs is planned afresh: the
        config-B run is a fresh runner's run of the edited file."""
        path = _export(gzip_trace, tmp_path / "trace.jsonl")
        name = f"import:{path}"

        def runner_of():
            return ExperimentRunner(
                sampling=test_sampling, cache=ResultCache(enabled=False),
                workload_scale=SCALE, methods=("simpoint", "coasts"),
            )

        runner = runner_of()
        run_a = runner.run_benchmark(name, CONFIG_A)
        edited = registry.load_trace("lucas", scale=SCALE)
        export_trace(edited, path, benchmark="lucas", scale=SCALE)
        run_b = runner.run_benchmark(name, CONFIG_B)
        assert run_a.total_instructions == gzip_trace.total_instructions
        assert run_b.total_instructions == edited.total_instructions
        config_b = runner.obs.tracer.roots[-1]
        assert "plan_construction" in [
            stage.name for stage in config_b.children
        ]
        fresh_b = runner_of().run_benchmark(name, CONFIG_B)
        assert json.dumps(run_b.to_dict()) == json.dumps(fresh_b.to_dict())


class TestQuarantine:
    """Each corruption is rejected with its own counted reason."""

    def _reject(self, path, reason):
        metrics = MetricsRegistry()
        with pytest.raises(TraceImportError):
            load_import(str(path), metrics=metrics)
        assert metrics.value(TRACE_IMPORT_REJECTED, reason=reason) == 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        self._reject(path, "empty")

    def test_unparseable_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        self._reject(path, "bad_json")

    def test_wrong_format_name(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "fmt.jsonl",
            lambda lines: lines[0].__setitem__("format", "gem5"),
        )
        self._reject(path, "bad_format")

    def test_wrong_version(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "ver.jsonl",
            lambda lines: lines[0].__setitem__("version",
                                               FORMAT_VERSION + 1),
        )
        self._reject(path, "bad_version")

    def test_zero_reps(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "reps.jsonl",
            lambda lines: lines[3].__setitem__("reps", 0),
        )
        self._reject(path, "bad_reps")

    def test_block_out_of_range(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "blocks.jsonl",
            lambda lines: lines[2].__setitem__("blocks", [10**6]),
        )
        self._reject(path, "block_range")

    def test_truncated_stream(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = tmp_path / "trunc.jsonl"
        lines = src.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        self._reject(path, "segment_count")

    def test_total_tampered(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "total.jsonl",
            lambda lines: lines[0].__setitem__("total_instructions", 7),
        )
        self._reject(path, "total_mismatch")

    def test_unknown_base_benchmark(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "base.jsonl",
            lambda lines: lines[0].__setitem__("benchmark", "doom3"),
        )
        self._reject(path, "unknown_base")

    def test_recursive_base_rejected(self, gzip_trace, tmp_path):
        src = _export(gzip_trace, tmp_path / "src.jsonl")
        path = _rewrite_jsonl(
            src, tmp_path / "rec.jsonl",
            lambda lines: lines[0].__setitem__("benchmark",
                                               "import:src.jsonl"),
        )
        self._reject(path, "recursive_base")

    def test_npz_missing_arrays(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, meta=np.array([json.dumps({
            "format": FORMAT_NAME, "version": FORMAT_VERSION,
            "benchmark": "gzip", "scale": SCALE,
            "n_segments": 1, "total_instructions": 1,
        })]), reps=np.array([1]))
        self._reject(path, "missing_arrays")

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(HarnessError):
            load_import(str(tmp_path / "nope.jsonl"))

    def test_unknown_suffix_is_usage_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("x")
        with pytest.raises(HarnessError):
            load_import(str(path))

    def test_rejections_accumulate_per_reason(self, tmp_path):
        metrics = MetricsRegistry()
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            path.write_text("")
            with pytest.raises(TraceImportError):
                load_import(str(path), metrics=metrics)
        assert metrics.value(TRACE_IMPORT_REJECTED, reason="empty") == 2.0


class TestCli:
    def test_export_then_run_round_trip(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "gzip.npz"
        assert main(["trace", "export", "gzip", "--out", str(out),
                     "--scale", "0.04"]) == 0
        assert main(["trace", "import", str(out)]) == 0
        report = capsys.readouterr().out
        assert "valid" in report and "sha256" in report
        assert main(["--scale", "0.04", "run", f"import:{out}",
                     "--methods", "simpoint"]) == 0
        assert "baseline CPI" in capsys.readouterr().out

    def test_corrupt_import_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert main(["trace", "import", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_missing_import_exits_2(self, tmp_path, capsys):
        assert main(["trace", "import",
                     str(tmp_path / "missing.jsonl")]) == 2

    def test_export_rejects_multi_benchmark_expression(self, tmp_path,
                                                       capsys):
        assert main(["trace", "export", "quick",
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "exactly one" in capsys.readouterr().err
