"""Shared fixtures: small, fast workload instances reused across tests."""

from __future__ import annotations

import pytest

from repro.config import CONFIG_A, SamplingConfig
from repro.engine import FunctionalSimulator, build_trace
from repro.workloads import generate_workload, get_spec, scaled_spec


#: Scale factor used for the shared small workloads.
TEST_SCALE = 0.04


@pytest.fixture(autouse=True)
def _isolate_history(tmp_path, monkeypatch):
    """Keep the cross-run history out of the checkout during tests.

    Every ``run``/``suite``/``bench`` CLI invocation appends to
    ``.repro_history/`` by default; pointing the env override at the
    test's tmp dir stops tests from polluting the working tree (and each
    other).
    """
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))


@pytest.fixture(scope="session")
def small_spec():
    """A shrunken gzip spec (4 regimes, tiny trip counts)."""
    return scaled_spec(get_spec("gzip"), TEST_SCALE)


@pytest.fixture(scope="session")
def small_workload(small_spec):
    """The generated workload of the shrunken gzip spec."""
    return generate_workload(small_spec)


@pytest.fixture(scope="session")
def small_trace(small_workload):
    """The unrolled trace of the shrunken gzip workload."""
    return build_trace(small_workload)


@pytest.fixture(scope="session")
def small_functional(small_trace):
    """A functional simulator over the shared small trace."""
    return FunctionalSimulator(small_trace)


@pytest.fixture(scope="session")
def small_fine_profile(small_functional):
    """Fine-interval profile (1K intervals) of the small trace."""
    return small_functional.profile_fixed_intervals(1000)


@pytest.fixture(scope="session")
def test_sampling():
    """Sampling config scaled down to match the small workloads."""
    return SamplingConfig(
        fine_interval_size=1000,
        fine_kmax=10,
        coarse_kmax=3,
        resample_threshold=3000,
        kmeans_seeds=2,
    )


@pytest.fixture(scope="session")
def config_a():
    """Table I config A."""
    return CONFIG_A


@pytest.fixture(scope="session")
def lucas_trace():
    """A shrunken lucas trace (Figure 1's benchmark)."""
    return build_trace(generate_workload(scaled_spec(get_spec("lucas"), TEST_SCALE)))
