"""Tests for the hash-index seeding substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.hash_index import (
    BUCKET_HEADER_BYTES,
    LOCATION_BYTES,
    HashIndex,
)
from repro.genomics.sequence import random_genome


def make_index(length=3000, k=11, stride=1, seed=1, bucket_load=4):
    genome = random_genome(length, seed=seed)
    positions = length - k + 1
    return genome, HashIndex(genome, k=k, stride=stride,
                             num_buckets=max(64, positions // bucket_load))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HashIndex("ACGT", k=0)
        with pytest.raises(ValueError):
            HashIndex("ACGT", k=2, stride=0)
        with pytest.raises(ValueError):
            HashIndex("AC", k=5)

    def test_layout_sizes(self):
        genome, index = make_index()
        assert index.directory_bytes == index.num_buckets * BUCKET_HEADER_BYTES
        sampled = len(range(0, len(genome) - index.k + 1, index.stride))
        assert index.locations_bytes == sampled * LOCATION_BYTES
        assert index.size_bytes == index.directory_bytes + index.locations_bytes


class TestLookup:
    def test_every_sampled_position_findable(self):
        genome, index = make_index(length=800)
        for pos in range(0, len(genome) - index.k + 1, 13):
            kmer = genome[pos : pos + index.k]
            assert pos in index.lookup(kmer)

    def test_lookup_length_validation(self):
        _genome, index = make_index()
        with pytest.raises(ValueError):
            index.lookup("ACG")

    def test_bucket_collisions_are_supersets_not_losses(self):
        # Bucketed tables may return spurious candidates but never drop the
        # true position (SMALT-style compact table semantics).
        genome, index = make_index(length=500, bucket_load=16)
        for pos in (0, 100, 250):
            kmer = genome[pos : pos + index.k]
            assert pos in index.lookup(kmer)


class TestTrace:
    def test_trace_matches_lookup(self):
        genome, index = make_index()
        kmer = genome[50 : 50 + index.k]
        trace = index.lookup_trace(kmer)
        assert list(trace.locations) == index.lookup(kmer)
        assert len(trace.location_addrs) == len(trace.locations)

    def test_trace_addresses_in_bounds_and_contiguous(self):
        genome, index = make_index()
        kmer = genome[123 : 123 + index.k]
        trace = index.lookup_trace(kmer)
        assert trace.header_addr == trace.bucket * BUCKET_HEADER_BYTES
        assert trace.header_addr < index.directory_bytes
        for i, addr in enumerate(trace.location_addrs):
            assert index.directory_bytes <= addr < index.size_bytes
            if i:
                assert addr == trace.location_addrs[i - 1] + LOCATION_BYTES

    def test_location_range_equals_per_slot_addresses(self):
        """Every bucket's address range equals ``location_address`` slot by
        slot: k-mers of the reference (filled buckets, strided so some
        positions are unsampled) and of another genome (mostly empty)."""
        genome, index = make_index(length=1500, stride=3)
        other = random_genome(400, seed=5)
        kmers = [seq[p : p + index.k]
                 for seq in (genome, other)
                 for p in range(len(seq) - index.k + 1)]
        empty = 0
        for kmer in kmers:
            trace = index.lookup_trace(kmer)
            offset = index._bucket_offset[trace.bucket]
            count = index._bucket_count[trace.bucket]
            assert trace.location_addrs == tuple(
                index.location_address(offset + i) for i in range(count))
            assert len(trace.location_addrs) == len(trace.locations)
            empty += count == 0
        assert 0 < empty < len(kmers)

    def test_seed_read_covers_read(self):
        genome, index = make_index()
        read = genome[200:300]
        queries = list(index.seed_read(read))
        expected = len(range(0, len(read) - index.k + 1, index.k))
        assert len(queries) == expected

    def test_seed_read_custom_stride(self):
        genome, index = make_index()
        read = genome[0:100]
        dense = list(index.seed_read(read, seed_stride=1))
        assert len(dense) == len(read) - index.k + 1


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=400))
def test_random_position_property(pos):
    genome, index = make_index(length=600, seed=9)
    pos = min(pos, len(genome) - index.k)
    kmer = genome[pos : pos + index.k]
    assert pos in index.lookup(kmer)


def _scalar_buckets(reference, k, stride, num_buckets):
    """The per-k-mer build: bucket -> its sampled positions, in order."""
    index = HashIndex(reference, k=k, stride=stride, num_buckets=num_buckets)
    buckets = {}
    for pos in range(0, len(reference) - k + 1, stride):
        bucket = index._bucket_of(reference[pos : pos + k])
        buckets.setdefault(bucket, []).append(pos)
    return index, buckets


def _bucket_lists(index):
    """Every bucket's location list, as the directory lays it out."""
    return {
        bucket: index._locations[offset : offset + count]
        for bucket, (offset, count) in enumerate(
            zip(index._bucket_offset, index._bucket_count))
        if count
    }


class TestVectorizedBuild:
    """The buckets come from one ``kmer_slots`` pass over the reference."""

    @pytest.mark.parametrize("length,k,stride,num_buckets", [
        (600, 11, 1, 64), (3000, 13, 1, 750), (3000, 13, 3, 97),
        (5000, 15, 2, 4096), (400, 32, 5, 1 << 20), (300, 1, 1, 64),
    ])
    def test_bucket_lists_equal_the_scalar_build(self, length, k, stride,
                                                 num_buckets):
        reference = random_genome(length, seed=length + k)
        index, buckets = _scalar_buckets(reference, k, stride, num_buckets)
        assert _bucket_lists(index) == buckets
        # Empty buckets keep offset 0, as the per-k-mer build left them.
        assert all(index._bucket_offset[b] == 0
                   for b in range(num_buckets) if b not in buckets)
        assert len(index._locations) == len(range(0, length - k + 1, stride))

    def test_lowercase_reference_takes_the_scalar_path(self):
        reference = random_genome(500, seed=3).lower()
        index, buckets = _scalar_buckets(reference, 11, 1, 64)
        assert _bucket_lists(index) == buckets

    def test_n_in_reference_raises_as_before(self):
        with pytest.raises(ValueError, match="non-ACGT character 'N' in k-mer"):
            HashIndex("ACGT" * 10 + "N" + "ACGT" * 10, k=5)
