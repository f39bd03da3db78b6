"""Tests for k-mer utilities and the counting Bloom filter."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PE_COMPUTE_CYCLES, Algorithm
from repro.core.task import (
    AccessSpec,
    BloomAccessor,
    ComputeStep,
    MemStep,
    kmer_insert_steps,
    kmer_query_steps,
)
from repro.dram.request import AccessKind, DataClass
from repro.genomics.bloom import CountingBloomFilter
from repro.genomics.kmer import (
    canonical_kmer,
    int_to_kmer,
    iter_kmers,
    kmer_hashes,
    kmer_slots,
    kmer_to_int,
    mix64,
)
from repro.memmgmt.regions import Region, StripedLayout
from repro.genomics.kmer_counting import exact_counts
from repro.genomics.sequence import random_genome, reverse_complement

kmers = st.text(alphabet="ACGT", min_size=1, max_size=31)


class TestKmerCoding:
    def test_known_values(self):
        assert kmer_to_int("A") == 0
        assert kmer_to_int("T") == 3
        assert kmer_to_int("AC") == 1
        assert kmer_to_int("CA") == 4

    @given(kmers)
    def test_roundtrip(self, kmer):
        assert int_to_kmer(kmer_to_int(kmer), len(kmer)) == kmer

    def test_invalid_characters(self):
        with pytest.raises(ValueError):
            kmer_to_int("ACGN")

    def test_int_to_kmer_range(self):
        with pytest.raises(ValueError):
            int_to_kmer(4, 1)


class TestCanonical:
    @given(kmers)
    def test_canonical_is_min(self, kmer):
        canon = canonical_kmer(kmer)
        assert canon == min(kmer, reverse_complement(kmer))

    @given(kmers)
    def test_strand_independent(self, kmer):
        assert canonical_kmer(kmer) == canonical_kmer(reverse_complement(kmer))


class TestIterKmers:
    def test_counts_and_order(self):
        assert list(iter_kmers("ACGTA", 3, canonical=False)) == ["ACG", "CGT", "GTA"]

    def test_short_sequence_yields_nothing(self):
        assert list(iter_kmers("AC", 5)) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(iter_kmers("ACGT", 0))


class TestHashes:
    def test_mix64_is_deterministic_and_spread(self):
        values = {mix64(i) for i in range(1000)}
        assert len(values) == 1000

    def test_kmer_hashes_distinct(self):
        hs = kmer_hashes("ACGTACGTACGT", 4)
        assert len(set(hs)) == 4

    def test_hash_count_validation(self):
        with pytest.raises(ValueError):
            kmer_hashes("ACGT", 0)

    @given(kmers)
    def test_hashes_strand_independent(self, kmer):
        assert kmer_hashes(kmer, 3) == kmer_hashes(reverse_complement(kmer), 3)


class TestCountingBloomFilter:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0)
        with pytest.raises(ValueError):
            CountingBloomFilter(8, num_hashes=0)
        with pytest.raises(ValueError):
            CountingBloomFilter(8, counter_bits=0)

    def test_insert_and_count(self):
        bloom = CountingBloomFilter(1 << 12)
        for _ in range(3):
            bloom.insert("ACGTACGTACGTACG")
        assert bloom.count("ACGTACGTACGTACG") >= 3
        assert bloom.contains("ACGTACGTACGTACG")

    def test_saturation(self):
        bloom = CountingBloomFilter(1 << 8, counter_bits=2)
        for _ in range(10):
            bloom.insert("ACGT")
        assert bloom.count("ACGT") == 3  # saturates at 2**2 - 1

    @settings(max_examples=20)
    @given(st.lists(kmers.filter(lambda s: len(s) == 9), min_size=1, max_size=50))
    def test_never_undercounts(self, inserted):
        bloom = CountingBloomFilter(1 << 14)
        for kmer in inserted:
            bloom.insert(kmer)
        truth = exact_counts(inserted, 9)
        for kmer, count in truth.items():
            assert bloom.count(kmer) >= count

    def test_merge_equals_union(self):
        a = CountingBloomFilter(1 << 10)
        b = CountingBloomFilter(1 << 10)
        a.insert("ACGTACGTA")
        b.insert("ACGTACGTA")
        b.insert("TTTTTTTTT")
        a.merge(b)
        assert a.count("ACGTACGTA") >= 2
        assert a.count("TTTTTTTTT") >= 1
        assert a.insertions == 3

    def test_merge_geometry_mismatch(self):
        a = CountingBloomFilter(1 << 10)
        b = CountingBloomFilter(1 << 9)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_sizing_helper(self):
        bloom = CountingBloomFilter.for_expected_items(1000, 0.01)
        assert bloom.num_counters >= 1000
        assert 1 <= bloom.num_hashes <= 16

    def test_sizing_validation(self):
        with pytest.raises(ValueError):
            CountingBloomFilter.for_expected_items(0)
        with pytest.raises(ValueError):
            CountingBloomFilter.for_expected_items(10, 1.5)

    def test_size_bytes_packs_counters(self):
        bloom = CountingBloomFilter(1000, counter_bits=4)
        assert bloom.size_bytes == 500

    def test_load_factor(self):
        bloom = CountingBloomFilter(1 << 10)
        assert bloom.load_factor == 0.0
        bloom.insert("ACGTACGTA")
        assert bloom.load_factor > 0.0


# -- the vectorized kernel against the scalar path ----------------------------

acgt = st.text(alphabet="ACGT", max_size=90)
#: Filter sizes from tiny to past 2**32 (and up to the uint64 limit).
moduli = st.one_of(
    st.integers(8, 1 << 16),
    st.integers((1 << 32) - 8, (1 << 32) + (1 << 20)),
    st.integers(8, (1 << 64) - 1),
)


def _scalar_slots(sequence, k, num_hashes, modulus):
    """``bloom.slots`` per k-mer; the slots read only the geometry, so a
    stand-in geometry covers filters too large to allocate."""
    geometry = SimpleNamespace(num_counters=modulus, num_hashes=num_hashes)
    return [CountingBloomFilter.slots(geometry, kmer)
            for kmer in iter_kmers(sequence, k)]


class TestKmerSlots:
    @settings(max_examples=300, deadline=None)
    @given(acgt, st.integers(1, 32), st.integers(1, 8), moduli)
    def test_equals_per_kmer_slots(self, sequence, k, num_hashes, modulus):
        rows = kmer_slots(sequence, k, num_hashes, modulus)
        assert rows.dtype == np.uint64
        assert rows.shape == (max(len(sequence) - k + 1, 0), num_hashes)
        assert rows.tolist() == _scalar_slots(sequence, k, num_hashes, modulus)

    def test_matches_a_real_filter(self):
        bloom = CountingBloomFilter(1 << 12, num_hashes=4)
        read = random_genome(300, seed=11)
        assert kmer_slots(read, 15, 4, bloom.num_counters).tolist() == \
            [bloom.slots(kmer) for kmer in iter_kmers(read, 15)]

    def test_chunked_sequence_and_extreme_codes(self):
        # Longer than one 2048-k-mer pass; all-T 32-mers pack to 2**64 - 1.
        for sequence in (random_genome(5000, seed=12), "T" * 40 + "A" * 40):
            for k, modulus in ((32, (1 << 64) - 1), (13, 1 << 14)):
                assert kmer_slots(sequence, k, 3, modulus).tolist() == \
                    _scalar_slots(sequence, k, 3, modulus)

    def test_scalar_cases_return_none(self):
        assert kmer_slots("ACGNT", 2, 1, 64) is None
        assert kmer_slots("acgt", 2, 1, 64) is None
        assert kmer_slots("A" * 40, 33, 1, 64) is None
        assert kmer_slots("ACGT", 0, 1, 64) is None
        assert kmer_slots("ACGT", 2, 0, 64) is None
        assert kmer_slots("ACGT", 2, 1, 0) is None
        assert kmer_slots("ACGT", 2, 1, 1 << 64) is None

    def test_short_sequence_is_empty(self):
        assert kmer_slots("", 3, 2, 64).shape == (0, 2)
        assert kmer_slots("AC", 3, 2, 64).shape == (0, 2)


class TestInsertSequence:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ACGT", max_size=1200), st.integers(1, 33),
           st.integers(1, 64), st.integers(1, 6), st.integers(1, 4))
    def test_equals_per_kmer_insert(self, sequence, k, num_counters,
                                    num_hashes, counter_bits):
        # Tiny filters and narrow counters, so saturation binds.
        looped = CountingBloomFilter(num_counters, num_hashes, counter_bits)
        for kmer in iter_kmers(sequence, k):
            looped.insert(kmer)
        bulk = CountingBloomFilter(num_counters, num_hashes, counter_bits)
        bulk.insert_sequence(sequence, k)
        assert bulk.counters.dtype == looped.counters.dtype
        assert bulk.counters.tolist() == looped.counters.tolist()
        assert bulk.insertions == looped.insertions

    def test_counter_past_saturation_is_left_alone(self):
        looped = CountingBloomFilter(16, 2, counter_bits=2)
        bulk = CountingBloomFilter(16, 2, counter_bits=2)
        for bloom in (looped, bulk):
            bloom.counters[:] = 9
        for kmer in iter_kmers("ACGTTGCA" * 4, 5):
            looped.insert(kmer)
        bulk.insert_sequence("ACGTTGCA" * 4, 5)
        assert bulk.counters.tolist() == looped.counters.tolist()

    def test_n_raises_after_the_same_insertions(self):
        sequence = random_genome(1500, seed=13)
        sequence = sequence[:1200] + "N" + sequence[1201:]
        looped = CountingBloomFilter(256, 3)
        with pytest.raises(ValueError, match="non-ACGT character 'N'") as scalar:
            for kmer in iter_kmers(sequence, 15):
                looped.insert(kmer)
        bulk = CountingBloomFilter(256, 3)
        with pytest.raises(ValueError) as vectorized:
            bulk.insert_sequence(sequence, 15)
        assert str(vectorized.value) == str(scalar.value)
        assert bulk.counters.tolist() == looped.counters.tolist()
        assert bulk.insertions == looped.insertions == 1200 - 14

    def test_lowercase_and_invalid_k_take_the_scalar_path(self):
        looped = CountingBloomFilter(128, 2)
        for kmer in iter_kmers("acgtAGGT" * 5, 4):
            looped.insert(kmer)
        bulk = CountingBloomFilter(128, 2)
        bulk.insert_sequence("acgtAGGT" * 5, 4)
        assert bulk.counters.tolist() == looped.counters.tolist()
        with pytest.raises(ValueError, match="k must be positive"):
            bulk.insert_sequence("ACGT", 0)


# -- the k-mer step generators against the per-k-mer path ----------------------


def _bloom_accessor(num_counters=1 << 10, num_hashes=3, counter_bits=4):
    bloom = CountingBloomFilter(num_counters, num_hashes, counter_bits)
    region = Region(name="bloom", base=1 << 20, size=bloom.size_bytes,
                    data_class=DataClass.BLOOM_COUNTER,
                    layout=StripedLayout([0]))
    return BloomAccessor(bloom, region)


def _scalar_kmer_steps(accessor, read, k, insert):
    """The per-k-mer step generator: hash each k-mer after its compute step."""
    compute = ComputeStep(PE_COMPUTE_CYCLES[Algorithm.KMER_COUNTING])
    kind = AccessKind.ATOMIC_RMW if insert else AccessKind.READ
    for kmer in iter_kmers(read, k):
        yield compute
        bloom = accessor.bloom
        slots = bloom.insert(kmer) if insert else bloom.slots(kmer)
        yield MemStep(tuple(
            AccessSpec(accessor.slot_addr(slot), 1, kind,
                       DataClass.BLOOM_COUNTER)
            for slot in slots
        ))


def _drain(steps):
    """Every step a generator yields, then what it raised (or None)."""
    out = []
    try:
        for step in steps:
            out.append(step)
    except ValueError as exc:
        return out, str(exc)
    return out, None


_GENERATORS = (kmer_insert_steps, kmer_query_steps)


def _assert_same_as_scalar(read, k):
    for generator in _GENERATORS:
        insert = generator is kmer_insert_steps
        mine, theirs = _bloom_accessor(), _bloom_accessor()
        got = _drain(generator(mine, read, k))
        want = _drain(_scalar_kmer_steps(theirs, read, k, insert))
        assert got == want
        assert mine.bloom.counters.tolist() == theirs.bloom.counters.tolist()
        assert mine.bloom.insertions == theirs.bloom.insertions


class TestKmerStepGenerators:
    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ACGT", max_size=120), st.integers(1, 32))
    def test_acgt_reads_match_the_scalar_path(self, read, k):
        _assert_same_as_scalar(read, k)

    def test_n_raises_at_the_same_step(self):
        read = random_genome(80, seed=14)
        read = read[:50] + "N" + read[51:]
        _assert_same_as_scalar(read, 15)
        steps, error = _drain(kmer_query_steps(_bloom_accessor(), read, 15))
        # k-mers 0..35 complete; k-mer 36 is the first to hold the N.
        assert len(steps) == 2 * 36 + 1
        assert error == "non-ACGT character 'N' in k-mer"

    def test_lowercase_read_and_k33_match_the_scalar_path(self):
        _assert_same_as_scalar(random_genome(60, seed=15).lower(), 15)
        _assert_same_as_scalar(random_genome(60, seed=16), 33)

    def test_empty_and_short_reads_yield_nothing(self):
        for generator in _GENERATORS:
            for read in ("", "ACGT"):
                assert list(generator(_bloom_accessor(), read, 15)) == []

    def test_invalid_k_raises_on_first_step(self):
        for generator in _GENERATORS:
            with pytest.raises(ValueError, match="k must be positive"):
                next(generator(_bloom_accessor(), "ACGT", 0))
