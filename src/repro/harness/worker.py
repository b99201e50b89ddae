"""Subprocess worker for the campaign dispatcher.

``python -m repro.harness.worker`` turns a process — local, or remote
behind any launcher that can pipe stdio (SSH, ``prun``, a cluster
spawner) — into a campaign worker.  ``run_suite(jobs=N)`` starts N of
them locally.  The worker speaks a versioned JSONL protocol over
stdin/stdout (one JSON object per line):

* worker → dispatcher: ``hello`` (once, at startup), ``heartbeat``
  (periodically while a task executes), ``result`` (one per task,
  carrying the serialised run or error plus the worker's observability
  shipment).
* dispatcher → worker: ``task`` (a run spec under a lease), ``shutdown``.

Every message carries the protocol version (:data:`PROTOCOL_VERSION`);
a mismatch is fatal on both sides, because silently reinterpreting a
task spec across versions could corrupt a campaign.  A task runs through
:func:`_worker_run`, a fresh :class:`~repro.harness.runner
.ExperimentRunner` over the shared on-disk cache, so a dispatched run is
the same pure function of its spec as a serial one — byte-identical
results by construction, and re-execution after a lost lease is
idempotent through the shared :class:`~repro.harness.cache.ResultCache`.

Dispatch-level fault injection (``$REPRO_FAULTS``, which crosses the
process boundary for free) hooks in here: ``worker_exit`` kills the
worker at task receipt, ``heartbeat_drop`` suppresses heartbeats and
holds the task past its lease deadline before executing it, and
``stale_commit`` withholds the finished result (and all heartbeats)
until shutdown — by which point the lease has certainly been reclaimed,
so the late commit must be rejected.  See :mod:`repro.harness.faults`.
"""

from __future__ import annotations

import importlib
import json
import os
import socket
import sys
import threading
import time
import traceback as traceback_module
from dataclasses import asdict
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, TextIO,
)

from ..config import (
    BranchPredictorConfig,
    CacheConfig,
    CostModel,
    FunctionalUnits,
    MachineConfig,
    SamplingConfig,
)
from ..errors import DispatchError, HarnessError, ReproError
from .cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import ExperimentRunner

#: Version of the dispatcher <-> worker JSONL protocol.  Bump on any
#: incompatible change to message shapes or task payload encoding.
PROTOCOL_VERSION = 1

#: Exit code for protocol violations (unparseable/incompatible input).
PROTOCOL_EXIT_CODE = 65  # EX_DATAERR


# ----------------------------------------------------------------------
# task payload encoding (JSON-safe config round-trips)
# ----------------------------------------------------------------------
def encode_task_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-encode a :func:`_worker_run` payload for the wire.

    The frozen config dataclasses and the cache path become plain JSON
    structures; everything else in the payload is JSON-native already.
    """
    encoded = dict(payload)
    encoded["sampling"] = asdict(payload["sampling"])
    encoded["cost_model"] = asdict(payload["cost_model"])
    encoded["config"] = asdict(payload["config"])
    encoded["cache_dir"] = str(payload["cache_dir"])
    encoded["methods"] = list(payload["methods"])
    return encoded


def decode_task_payload(encoded: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a :func:`_worker_run` payload from its wire form."""
    payload = dict(encoded)
    payload["sampling"] = SamplingConfig(**encoded["sampling"])
    payload["cost_model"] = CostModel(**encoded["cost_model"])
    payload["config"] = decode_machine_config(encoded["config"])
    payload["cache_dir"] = Path(encoded["cache_dir"])
    payload["methods"] = tuple(encoded["methods"])
    return payload


def decode_machine_config(data: Dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from ``dataclasses.asdict``."""
    fields = dict(data)
    fields["functional_units"] = FunctionalUnits(**data["functional_units"])
    for cache in ("icache", "dcache", "l2cache"):
        fields[cache] = CacheConfig(**data[cache])
    fields["branch"] = BranchPredictorConfig(**data["branch"])
    return MachineConfig(**fields)


def plugin_modules(methods: Sequence[str]) -> List[str]:
    """Modules a fresh worker must import to see *methods*' samplers.

    A worker process starts with only the built-in samplers registered,
    so each selected sampler defined outside the ``repro`` package is
    shipped by the name of the module that defines its ``build_plan``;
    importing that module registers it.  A sampler defined in
    ``__main__`` cannot be imported by name, so it is rejected here,
    before any worker starts.
    """
    from ..samplers import get_sampler

    modules: List[str] = []
    for name in methods:
        module = get_sampler(name).build_plan.__module__
        if module == "repro" or module.startswith("repro."):
            continue
        if module == "__main__":
            raise HarnessError(
                f"sampler {name!r} is defined in __main__, which worker "
                f"processes cannot import; define it in an importable "
                f"module to run with jobs > 1"
            )
        if module not in modules:
            modules.append(module)
    return modules


# ----------------------------------------------------------------------
# task execution
# ----------------------------------------------------------------------
def _worker_obs(
    runner: "ExperimentRunner", worker: Optional[str] = None
) -> dict:
    """A worker's observability shipment: span trees + metrics.

    Each shipped root span is stamped with the executing host/pid (and
    the dispatch worker id, when there is one) so the stitched campaign
    trace records *where* every attempt ran.
    """
    attributes = {"host": socket.gethostname(), "pid": os.getpid()}
    if worker is not None:
        attributes["worker"] = worker
    for root in runner.obs.tracer.roots:
        root.set(**attributes)
    return runner.obs.to_dict()


def _worker_run(
    payload: dict, runner_sink: Callable[["ExperimentRunner"], None]
) -> tuple:
    """Execute one pipeline run inside a worker process.

    Builds a local :class:`ExperimentRunner` (workers share only the
    on-disk cache), runs the benchmark, and returns either
    ``("ok", run_payload, obs_payload)`` or — when the pipeline raises
    a library error — ``("error", info)`` with the exception class,
    message, traceback, failing stage and the worker's observability
    records (span trees, metrics), so the dispatcher can
    retry or record the failure.  Non-library exceptions (genuine bugs)
    propagate, exactly as on the serial path.

    A ``trace_ctx`` in the payload joins the driver's distributed trace
    (span ids minted under the task's origin, roots pointed at the
    owning suite span).  *runner_sink* receives the freshly built runner
    before execution starts, so the caller can tap its registry for
    heartbeat piggybacking.
    """
    from . import faults
    from .runner import ExperimentRunner

    for module in payload.get("plugins", ()):
        importlib.import_module(module)
    faults.set_attempt(payload.get("attempt", 0))
    runner = ExperimentRunner(
        sampling=payload["sampling"],
        cost_model=payload["cost_model"],
        cache=ResultCache(
            directory=payload["cache_dir"], enabled=payload["cache_enabled"]
        ),
        workload_scale=payload["workload_scale"],
        methods=payload["methods"],
        diagnostics=payload.get("diagnostics", True),
    )
    context = payload.get("trace_ctx")
    if context:
        runner.obs.tracer.adopt_context(
            trace_id=context.get("trace_id"),
            parent_id=context.get("parent_id"),
            origin=context.get("origin"),
        )
    runner_sink(runner)
    worker_label = payload.get("worker")
    try:
        run = runner.run_benchmark(payload["benchmark"], payload["config"])
    except ReproError as error:
        return (
            "error",
            {
                "error_type": type(error).__name__,
                "error_message": str(error),
                "traceback": traceback_module.format_exc(),
                "stage": getattr(error, "_repro_stage", None),
                "obs": _worker_obs(runner, worker=worker_label),
            },
        )
    finally:
        faults.set_attempt(0)
    return ("ok", run.to_dict(), _worker_obs(runner, worker=worker_label))


# ----------------------------------------------------------------------
# worker side of the protocol
# ----------------------------------------------------------------------
class _Outbox:
    """Serialised, locked JSONL writes (heartbeat thread + main thread)."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        message.setdefault("v", PROTOCOL_VERSION)
        with self._lock:
            self._stream.write(json.dumps(message) + "\n")
            self._stream.flush()


def _execute_task(
    message: Dict[str, Any], outbox: _Outbox
) -> Optional[Dict[str, Any]]:
    """Run one leased task, heartbeating while it executes.

    Returns ``None`` after sending the result, or — under an injected
    ``stale_commit`` fault — the withheld result message for the caller
    to flush at shutdown.
    """
    from . import faults

    lease = message["lease"]
    benchmark = message["benchmark"]
    attempt = int(message.get("attempt", 0))
    heartbeat_interval = float(message["heartbeat_interval"])

    if faults.dispatch_fault("worker_exit", benchmark, attempt):
        # Simulated node loss: die without a word, mid-lease, exactly as
        # an OOM-killed or powered-off machine would.
        os._exit(faults.KILL_EXIT_CODE)
    drop_heartbeats = faults.dispatch_fault(
        "heartbeat_drop", benchmark, attempt
    )
    stale_commit = faults.dispatch_fault("stale_commit", benchmark, attempt)
    if drop_heartbeats:
        # A deaf worker stays silent past its lease deadline before it
        # starts, so the lease always expires before the result commits,
        # however fast the run itself is.
        time.sleep(float(message["lease_timeout"]) + heartbeat_interval)

    payload = decode_task_payload(message["payload"])
    payload["attempt"] = attempt

    stop = threading.Event()

    # The heartbeat thread piggybacks incremental metrics snapshots:
    # once _worker_run hands us its runner (via the sink), every beat
    # carries the delta since the previous one under a monotonic
    # sequence number, so the dispatcher's LiveRegistry can fold each
    # exactly once.  A dropped/withheld heartbeat loses nothing — the
    # final result payload carries the authoritative registry.
    tap: Dict[str, Any] = {}

    def _runner_sink(runner: Any) -> None:
        from ..obs.stream import MetricsDeltaEncoder

        tap["encoder"] = MetricsDeltaEncoder(runner.obs.metrics)

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            if drop_heartbeats:
                continue
            beat: Dict[str, Any] = {"type": "heartbeat", "lease": lease}
            encoder = tap.get("encoder")
            if encoder is not None:
                delta = encoder.next_delta()
                if delta is not None:
                    beat["seq"] = delta["seq"]
                    beat["metrics"] = delta["metrics"]
            outbox.send(beat)

    beater = threading.Thread(target=_heartbeat, daemon=True)
    beater.start()
    try:
        try:
            outcome = _worker_run(payload, runner_sink=_runner_sink)
        except BaseException:
            # Non-library failure (a genuine bug): report it so the
            # dispatcher can abort the campaign with the traceback
            # instead of inferring a silent node loss.
            outbox.send({
                "type": "result",
                "lease": lease,
                "status": "fatal",
                "traceback": traceback_module.format_exc(),
            })
            raise
    finally:
        stop.set()
        beater.join()

    if outcome[0] == "ok":
        result = {
            "type": "result", "lease": lease, "status": "ok",
            "run": outcome[1], "obs": outcome[2],
        }
    else:
        result = {
            "type": "result", "lease": lease, "status": "error",
            "info": outcome[1],
        }

    if stale_commit:
        # Withhold the finished result (heartbeats already stopped): the
        # lease will expire and the task will be reclaimed and re-run
        # elsewhere.  The result is flushed at shutdown — by then the
        # lease is certainly gone — and must be rejected as stale.
        return result
    outbox.send(result)
    return None


def serve(stdin: TextIO, stdout: TextIO) -> int:
    """Worker main loop: read task messages, execute, answer.

    Returns the process exit code.  EOF on stdin — the dispatcher went
    away — is a clean shutdown, so an orphaned worker never outlives its
    dispatcher's pipes.
    """
    outbox = _Outbox(stdout)
    outbox.send({"type": "hello", "pid": os.getpid()})
    withheld: List[Dict[str, Any]] = []

    def _flush_withheld() -> None:
        for message in withheld:
            try:
                outbox.send(message)
            except OSError:  # pragma: no cover - dispatcher pipe gone
                break
        del withheld[:]

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            print(f"repro-worker: unparseable message: {line[:120]!r}",
                  file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        if message.get("v") != PROTOCOL_VERSION:
            print(
                f"repro-worker: protocol version mismatch "
                f"(mine {PROTOCOL_VERSION}, got {message.get('v')!r})",
                file=sys.stderr,
            )
            return PROTOCOL_EXIT_CODE
        kind = message.get("type")
        if kind == "shutdown":
            _flush_withheld()
            return 0
        if kind != "task":
            print(f"repro-worker: unexpected message type {kind!r}",
                  file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        try:
            deferred = _execute_task(message, outbox)
        except DispatchError as error:
            print(f"repro-worker: {error}", file=sys.stderr)
            return PROTOCOL_EXIT_CODE
        if deferred is not None:
            withheld.append(deferred)
    _flush_withheld()
    return 0


def main() -> int:
    """``python -m repro.harness.worker`` entry point."""
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
