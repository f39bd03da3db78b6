"""Cross-run index cache: amortize index construction across sweep points.

The experiment matrix replays the *same* workload against many system
configurations: one step sweep builds five-plus systems over one dataset,
its idealized twin re-runs the full configuration, and the CPU baseline
walks the same indexes functionally.  Every one of those runs used to
rebuild the FM-index (a suffix-array construction, the single most
expensive piece of Python in a sweep point) and the hash index from the
identical reference string.

:class:`IndexCache` memoizes those *immutable* structures behind
content-derived keys, so a matrix point pays for construction once and
every later run in the same process — later optimization steps, the
idealized twin, the CPU baseline, the next figure sharing the dataset —
gets the built index back instantly.  Worker processes of a
:class:`~repro.experiments.parallel.ParallelSweepRunner` pool each keep
their own cache, which amortizes across the sweep jobs that pool worker
executes.

Correctness contract (what keeps results bit-identical):

* Only *read-only* structures are cached: :class:`~repro.genomics.
  fm_index.FMIndex` and :class:`~repro.genomics.hash_index.HashIndex`
  never change after construction, and the cached FM hot-block profile is
  returned as a non-writeable array.  Mutable structures (counting Bloom
  filters, whose counters the simulation updates) are **never** cached —
  every run gets a fresh one via :func:`fresh_bloom_filter`.
* Keys are content digests (reference text, index parameters), never
  object identities, so a hit is definitionally the same structure a
  rebuild would produce.
* ``REPRO_DISABLE_INDEX_CACHE=1`` bypasses the cache entirely (reads and
  writes); the perf harness uses it to prove cached and uncached runs
  produce identical fingerprints.

The cache is bounded (:data:`DEFAULT_MAX_ENTRIES`, LRU eviction in
deterministic insertion/recency order) so long campaigns cannot grow it
without limit.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from repro.genomics.bloom import CountingBloomFilter
from repro.genomics.fm_index import FMIndex
from repro.genomics.hash_index import HashIndex

#: Kill switch, checked on every lookup (so it can be flipped after
#: import): ``1`` / any non-empty value disables hits and stores.
DISABLE_ENV = "REPRO_DISABLE_INDEX_CACHE"

#: Default entry bound.  An entry is one built index (or hot profile); the
#: evaluation needs at most a handful per dataset x parameter combination.
DEFAULT_MAX_ENTRIES = 64

Key = Tuple[Any, ...]


def content_key(text: str) -> str:
    """Stable digest of a reference/read payload (cache key component)."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def reads_key(reads: Sequence[str]) -> str:
    """Stable digest of an ordered read collection."""
    digest = hashlib.sha256()
    for read in reads:
        digest.update(read.encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters for one cache; ``build_s`` is wall time spent on misses."""

    hits: int = 0
    misses: int = 0
    build_s: float = 0.0
    evictions: int = 0
    bypasses: int = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "build_s": self.build_s,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
        }


class IndexCache:
    """Process-local memoization of immutable genomics index structures."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: Dict[Key, Any] = {}
        self.stats = CacheStats()

    # -- mechanics --------------------------------------------------------------

    @staticmethod
    def enabled() -> bool:
        return not os.environ.get(DISABLE_ENV, "").strip()

    def memo(self, key: Key, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building (and storing) on miss.

        With the cache disabled the build runs unconditionally and nothing
        is stored — exactly the pre-cache semantics.
        """
        if not self.enabled():
            self.stats.bypasses += 1
            return build()
        if key in self._entries:
            self.stats.hits += 1
            # LRU refresh: re-insert so eviction order tracks recency.
            value = self._entries.pop(key)
            self._entries[key] = value
            return value
        self.stats.misses += 1
        # Wall-clock here is cache *bookkeeping* for the bench notes; it
        # never reaches simulated state.
        started = time.perf_counter()  # repro: allow[no-wall-clock] -- cache build-time accounting is observational; the cached value is deterministic and simulated results never see the clock
        value = build()
        self.stats.build_s += time.perf_counter() - started  # repro: allow[no-wall-clock] -- cache build-time accounting is observational; the cached value is deterministic and simulated results never see the clock
        if len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.evictions += 1
        self._entries[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry (stats are kept; use ``reset_stats`` for those)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- the cached structures ----------------------------------------------------

    def fm_index(self, reference: str) -> FMIndex:
        """The FM-index of ``reference`` (built once per distinct text)."""
        return self.memo(
            ("fm", content_key(reference)), lambda: FMIndex(reference)
        )

    def hash_index(self, reference: str, k: int, stride: int,
                   num_buckets: int) -> HashIndex:
        """The bucketed hash index for one parameterization of a reference."""
        return self.memo(
            ("hash", content_key(reference), k, stride, num_buckets),
            lambda: HashIndex(reference, k=k, stride=stride,
                              num_buckets=num_buckets),
        )

    def fm_hot_profile(
        self,
        fm: FMIndex,
        sample: Sequence[str],
        build: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """Access-frequency profile of ``sample`` against ``fm``.

        The profile replays real backward searches, so re-deriving it for
        every placement-enabled step is pure waste.  The cached array is
        marked non-writeable: consumers (the placement planner) only rank
        it, and an accidental in-place mutation would silently corrupt
        later sweep points.
        """
        key = ("fm-hot", content_key(fm.text), reads_key(sample))

        def build_frozen() -> np.ndarray:
            counts = np.asarray(build())
            counts.setflags(write=False)
            return counts

        return self.memo(key, build_frozen)


def fresh_bloom_filter(num_counters: int, num_hashes: int = 4,
                       counter_bits: int = 4) -> CountingBloomFilter:
    """A new counting Bloom filter — deliberately *uncached*.

    Bloom filters are the one index the simulation mutates (every insert
    bumps counters), so sharing an instance across runs would leak state
    between sweep points.  Construction is a single zeroed array, so there
    is nothing to amortize; this constructor exists so the drivers route
    every index acquisition through one module with one stated policy.
    """
    return CountingBloomFilter(num_counters, num_hashes=num_hashes,
                               counter_bits=counter_bits)


#: The process-wide cache instance the drivers and baselines share.
GLOBAL_CACHE = IndexCache()


def get_cache() -> IndexCache:
    """The shared per-process cache (workers each get their own copy)."""
    return GLOBAL_CACHE


def cache_stats() -> Dict[str, Any]:
    """Snapshot of the shared cache's counters (for bench notes / tests)."""
    return GLOBAL_CACHE.stats.snapshot()
