"""Run manifests: what ran, under what inputs, with what outcome.

A :class:`RunManifest` is the provenance record of one harness
invocation — enough to answer, months later, *which code, configuration,
seeds and fault spec produced this table*:

* tool versions (repro, Python, numpy, platform);
* a content digest of every result-affecting input (machine config,
  sampling config, scale, methods — the same inputs the result cache
  and suite journal fingerprint), plus the per-benchmark workload seeds;
* the execution knobs that do *not* affect results but do affect cost
  (jobs, fault policy) and the active ``$REPRO_FAULTS`` spec;
* the outcome: completed/failed run counts, failure one-liners, wall
  clock, cache traffic.

Manifests serialise to a flat JSON dict; ``--trace-out`` embeds one as
the JSONL header record and ``--manifest-out`` writes one standalone.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import MachineConfig
    from ..harness.recovery import SuiteOutcome
    from ..harness.runner import ExperimentRunner

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def host_fingerprint() -> Dict[str, str]:
    """Tool-version and platform facts shared by every provenance record.

    Used both by :meth:`RunManifest.collect` and by the ``repro bench``
    report, so a benchmark result always names the code and host that
    produced it.
    """
    import numpy

    from .. import __version__

    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "repro_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RunManifest:
    """Provenance record of one ``run``/``suite``/``experiment`` call."""

    version: int = MANIFEST_VERSION
    created: str = ""
    repro_version: str = ""
    python_version: str = ""
    numpy_version: str = ""
    platform: str = ""
    config_name: str = ""
    config_digest: str = ""
    sampling_digest: str = ""
    workload_scale: float = 1.0
    methods: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)
    seeds: Dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    fault_spec: str = ""
    policy: Dict[str, object] = field(default_factory=dict)
    outcome: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @staticmethod
    def collect(
        runner: "ExperimentRunner",
        config: Optional["MachineConfig"] = None,
        names: Sequence[str] = (),
        outcome: Optional["SuiteOutcome"] = None,
    ) -> "RunManifest":
        """Snapshot *runner*'s invocation (call after the work finished)."""
        from ..harness.faults import FAULTS_ENV
        from ..harness.runner import timing_summary
        from ..workloads.registry import get_spec

        names = list(names)
        seeds: Dict[str, int] = {}
        for name in names:
            try:
                seeds[name] = get_spec(name).seed
            except Exception:  # unknown name: leave it out of the seeds
                pass
        timing = timing_summary(runner.obs.tracer)
        outcome_payload: Dict[str, object] = {
            "completed": len(outcome.runs) if outcome is not None else 0,
            "failed": len(outcome.failures) if outcome is not None else 0,
            "failures": (
                [f.describe() for f in outcome.failures]
                if outcome is not None else []
            ),
            "wall_seconds": timing["wall_seconds"],
            "cache_hits": timing["cache_hits"],
            "cache_misses": timing["cache_misses"],
        }
        host = host_fingerprint()
        return RunManifest(
            created=host["created"],
            repro_version=host["repro_version"],
            python_version=host["python_version"],
            numpy_version=host["numpy_version"],
            platform=host["platform"],
            config_name=config.name if config is not None else "",
            config_digest=_digest(repr(config)) if config is not None else "",
            sampling_digest=_digest(
                f"{runner.sampling!r}:{runner.cost_model!r}"
            ),
            workload_scale=runner.workload_scale,
            methods=list(runner.methods),
            benchmarks=names,
            seeds=seeds,
            jobs=timing["jobs"],
            fault_spec=os.environ.get(FAULTS_ENV, ""),
            policy={
                "max_retries": runner.policy.max_retries,
                "timeout": runner.policy.timeout,
                "fail_fast": runner.policy.fail_fast,
            },
            outcome=outcome_payload,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "RunManifest":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f for f in RunManifest.__dataclass_fields__}
        return RunManifest(
            **{k: v for k, v in payload.items() if k in known}
        )

    def write(self, path) -> None:
        """Write the manifest as indented JSON to *path*."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @staticmethod
    def load(path) -> "RunManifest":
        """Read a manifest written by :meth:`write`."""
        return RunManifest.from_dict(json.loads(Path(path).read_text()))
