"""Tests for the set-associative cache and the occupancy models."""

import pytest

from repro.config import CONFIG_A, CacheConfig
from repro.uarch import Cache, DataHierarchyModel, OccupancyCache
from repro.uarch.occupancy import visit_hit_rate


def small_cache(size=1024, assoc=2, line=32):
    return Cache(CacheConfig("t", size, assoc, line, 1))


class TestSetAssociativeCache:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_eviction_within_set(self):
        cache = small_cache(size=128, assoc=2, line=32)  # 2 sets, 2 ways
        n_sets = cache.n_sets
        a, b, c = 0, n_sets, 2 * n_sets  # same set
        cache.access(a)
        cache.access(b)
        cache.access(a)          # a is now MRU
        cache.access(c)          # evicts b (LRU)
        assert cache.access(a) is True
        assert cache.access(c) is True
        assert cache.access(b) is False

    def test_access_run_returns_miss_lines(self):
        cache = small_cache()
        misses, miss_lines = cache.access_run([1, 2, 1, 3])
        assert misses == 3
        assert miss_lines == [1, 2, 3]

    def test_reset_clears_state_and_stats(self):
        cache = small_cache()
        cache.access(1)
        cache.reset()
        assert cache.accesses == 0
        assert cache.resident_lines() == 0


class TestVisitHitRate:
    def test_cold_visit_all_misses(self):
        assert visit_hit_rate(0.0, 100.0, 50.0, 1000.0) == 0.0

    def test_fully_resident_single_sweep_all_hits(self):
        assert visit_hit_rate(100.0, 100.0, 100.0, 1000.0) == 1.0

    def test_resweep_hits_when_footprint_fits(self):
        # cold entry, two sweeps, footprint fits the cache
        rate = visit_hit_rate(0.0, 100.0, 200.0, 1000.0)
        assert rate == pytest.approx(0.5)

    def test_resweep_thrashes_when_footprint_exceeds_cache(self):
        rate = visit_hit_rate(0.0, 1000.0, 2000.0, 100.0)
        assert rate == pytest.approx(0.05)

    def test_partial_residency_scales_hits(self):
        rate = visit_hit_rate(25.0, 100.0, 100.0, 1000.0)
        assert rate == pytest.approx(0.25)


class TestOccupancyCache:
    def make(self, lines=64):
        return OccupancyCache(CacheConfig("t", lines * 32, 1, 32, 1))

    def test_install_and_residency(self):
        cache = self.make()
        cache.install(1, 40.0)
        assert cache.residency(1) == 40.0
        assert cache.occupancy == 40.0

    def test_install_caps_at_capacity(self):
        cache = self.make(64)
        cache.install(1, 1000.0)
        assert cache.residency(1) == 64.0

    def test_lru_eviction_prefers_stale_regions(self):
        cache = self.make(64)
        cache.install(1, 40.0)
        cache.install(2, 30.0)
        cache.install(3, 30.0)  # overflow 36 -> evict region 1 first
        assert cache.residency(1) == pytest.approx(4.0)
        assert cache.residency(2) == pytest.approx(30.0)
        assert cache.residency(3) == pytest.approx(30.0)

    def test_reset(self):
        cache = self.make()
        cache.install(1, 10.0)
        cache.reset()
        assert cache.occupancy == 0.0


class TestDataHierarchyModel:
    def make(self):
        return DataHierarchyModel(CONFIG_A.dcache, CONFIG_A.l2cache)

    def test_cold_visit_misses_both_levels(self):
        model = self.make()
        l1m, l2m = model.access_data(0, 100.0, "v1", 100.0, 100.0)
        assert l1m == pytest.approx(100.0)
        assert l2m == pytest.approx(100.0)

    def test_second_visit_hits_l2_when_it_fits(self):
        model = self.make()
        model.access_data(0, 100.0, "v1", 100.0, 100.0)
        l1m, l2m = model.access_data(0, 100.0, "v2", 100.0, 100.0)
        # L1 (512 lines) holds the 100-line footprint: both levels hit.
        assert l1m == pytest.approx(0.0)
        assert l2m == pytest.approx(0.0)

    def test_visit_hit_rate_constant_across_batches(self):
        """Slicing a visit into batches must not change per-touch rates."""
        whole = self.make()
        l1_whole, _ = whole.access_data(0, 4096.0, "v", 4096.0, 4096.0)

        split = self.make()
        l1_split = 0.0
        for _ in range(8):
            l1m, _ = split.access_data(0, 4096.0, "v", 4096.0, 512.0)
            l1_split += l1m
        assert l1_split == pytest.approx(l1_whole)

    def test_big_footprint_evicts_small_region_in_l1(self):
        model = self.make()
        model.access_data(0, 100.0, "a", 100.0, 100.0)
        model.access_data(1, 100_000.0, "b", 10_000.0, 10_000.0)
        assert model.l1.residency(0) == pytest.approx(0.0)

    def test_code_region_shares_l2(self):
        model = self.make()
        misses = model.access_code(100.0, 100.0)
        assert misses == pytest.approx(100.0)
        assert model.access_code(100.0, 100.0) == pytest.approx(0.0)

    def test_reset_forgets_visits(self):
        model = self.make()
        model.access_data(0, 100.0, "v", 100.0, 100.0)
        model.reset()
        l1m, _ = model.access_data(0, 100.0, "v", 100.0, 100.0)
        assert l1m == pytest.approx(100.0)
