"""Tests for the cross-run index cache (repro.genomics.index_cache)."""

import numpy as np
import pytest

from repro.baselines.cpu import CpuModel
from repro.genomics.fm_index import FMIndex
from repro.genomics.index_cache import (
    DISABLE_ENV,
    IndexCache,
    fresh_bloom_filter,
    get_cache,
)
from repro.genomics.workloads import SEEDING_DATASETS, make_seeding_workload


@pytest.fixture()
def cache():
    return IndexCache(max_entries=4)


REFERENCE = "ACGTACGTTACGGATTACA" * 8


class TestMemoization:
    def test_hit_returns_identical_object(self, cache):
        first = cache.fm_index(REFERENCE)
        second = cache.fm_index(REFERENCE)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_references_do_not_collide(self, cache):
        assert cache.fm_index(REFERENCE) is not cache.fm_index(REFERENCE[:-4])
        assert cache.stats.misses == 2

    def test_hash_index_keyed_by_parameters(self, cache):
        a = cache.hash_index(REFERENCE, k=13, stride=1, num_buckets=64)
        b = cache.hash_index(REFERENCE, k=13, stride=1, num_buckets=64)
        c = cache.hash_index(REFERENCE, k=11, stride=1, num_buckets=64)
        assert a is b
        assert a is not c

    def test_lru_eviction_is_bounded_and_recency_ordered(self, cache):
        for i in range(6):
            cache.memo(("k", i), lambda i=i: i)
        assert len(cache) == 4
        assert cache.stats.evictions == 2
        # (k, 0) and (k, 1) were evicted; (k, 5) is resident.
        cache.memo(("k", 5), lambda: "rebuilt")
        assert cache.stats.hits == 1
        assert cache.memo(("k", 0), lambda: "rebuilt") == "rebuilt"

    def test_clear_drops_entries(self, cache):
        cache.fm_index(REFERENCE)
        cache.clear()
        assert len(cache) == 0
        cache.fm_index(REFERENCE)
        assert cache.stats.misses == 2


class TestDisableSwitch:
    def test_env_bypasses_reads_and_writes(self, cache, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        first = cache.fm_index(REFERENCE)
        second = cache.fm_index(REFERENCE)
        assert first is not second
        assert len(cache) == 0
        assert cache.stats.bypasses == 2
        assert cache.stats.hits == cache.stats.misses == 0

    def test_disable_checked_per_lookup(self, cache, monkeypatch):
        # Flipping the switch mid-process must take effect immediately.
        cached = cache.fm_index(REFERENCE)
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert cache.fm_index(REFERENCE) is not cached
        monkeypatch.delenv(DISABLE_ENV)
        assert cache.fm_index(REFERENCE) is cached

    def test_cached_and_uncached_indexes_are_equivalent(self, cache):
        cached = cache.fm_index(REFERENCE)
        rebuilt = FMIndex(REFERENCE)
        read = REFERENCE[8:24]
        assert [
            (a.symbol, a.blocks) for a in cached.search_trace(read)
        ] == [
            (a.symbol, a.blocks) for a in rebuilt.search_trace(read)
        ]


class TestSafetyContracts:
    def test_hot_profile_is_frozen(self, cache):
        fm = cache.fm_index(REFERENCE)
        profile = cache.fm_hot_profile(
            fm, ["ACGT"], lambda: np.ones(4, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            profile[0] = 99

    def test_bloom_filters_are_never_shared(self):
        a = fresh_bloom_filter(1 << 10)
        b = fresh_bloom_filter(1 << 10)
        assert a is not b
        a.insert("ACGTACGTACGTACG")
        assert b.count("ACGTACGTACGTACG") == 0

    def test_cpu_baseline_identical_with_and_without_cache(self, monkeypatch):
        workload = make_seeding_workload(SEEDING_DATASETS[0], scale=0.02)
        get_cache().clear()
        cached = CpuModel().run_fm_seeding(workload)
        monkeypatch.setenv(DISABLE_ENV, "1")
        uncached = CpuModel().run_fm_seeding(workload)
        assert cached.runtime_cycles == uncached.runtime_cycles
        assert cached.mem_requests == uncached.mem_requests
        assert cached.energy_dram_nj == uncached.energy_dram_nj
