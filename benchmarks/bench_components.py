"""Throughput micro-benchmarks of the core components.

Not a paper table — these track the performance of the substrate pieces the
experiments lean on (trace unrolling, BBV profiling, detailed simulation,
clustering), so regressions show up in `pytest benchmarks/ --benchmark-only`
next to the experiment regenerations.
"""

import numpy as np
import pytest

from repro.analysis import cluster_with_bic
from repro.config import CONFIG_A, DEFAULT_SAMPLING
from repro.detailed import TimingSimulator
from repro.engine import FunctionalSimulator, build_trace
from repro.sampling.estimate import simulate_point_set
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def gzip_trace():
    return build_trace(load_workload("gzip"))


def test_perf_trace_unrolling(benchmark):
    workload = load_workload("gzip")
    trace = benchmark(build_trace, workload)
    assert trace.total_instructions > 10_000_000


def test_perf_fine_profile(benchmark, gzip_trace):
    functional = FunctionalSimulator(gzip_trace)
    profile = benchmark(
        functional.profile_fixed_intervals, DEFAULT_SAMPLING.fine_interval_size
    )
    assert profile.n_intervals > 1000


def test_perf_coarse_profile(benchmark, gzip_trace):
    functional = FunctionalSimulator(gzip_trace)
    profile = benchmark(functional.profile_coarse_intervals, 4)
    assert profile.n_instances == gzip_trace.spec.n_outer_iterations


def test_perf_full_detailed_simulation(benchmark, gzip_trace):
    simulator = TimingSimulator(gzip_trace, CONFIG_A)
    result = benchmark.pedantic(simulator.simulate_full, rounds=1,
                                iterations=1)
    assert result.instructions == gzip_trace.total_instructions


def test_perf_point_simulation(benchmark, gzip_trace):
    simulator = TimingSimulator(gzip_trace, CONFIG_A)
    total = gzip_trace.total_instructions

    point = (total // 2, total // 2 + 2500)

    def simulate():
        return simulate_point_set(simulator, [point])[point]

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.instructions >= 2500


def test_perf_kmeans_bic(benchmark):
    rng = np.random.default_rng(0)
    data = np.vstack([
        rng.normal(i * 3.0, 0.3, size=(800, 15)) for i in range(4)
    ])

    def cluster():
        return cluster_with_bic(data, kmax=10, seed=0, n_seeds=2)

    result, _ = benchmark(cluster)
    assert result.k >= 2
