"""Unit tests for the region accessors and step generators in core.task."""

import pytest

from repro.core.config import Algorithm, PE_COMPUTE_CYCLES
from repro.core.custom import CustomApplication, probe_steps
from repro.core.task import (
    AccessSpec,
    BloomAccessor,
    ComputeStep,
    FmIndexAccessor,
    HashIndexAccessor,
    MemStep,
    ReferenceAccessor,
    fm_seeding_steps,
    hash_seeding_steps,
    kmer_insert_steps,
    kmer_query_steps,
    prealign_steps,
)
from repro.dram.request import AccessKind, DataClass
from repro.genomics.bloom import CountingBloomFilter
from repro.genomics.fm_index import FMIndex
from repro.genomics.hash_index import HashIndex
from repro.genomics.prealign import ShoujiFilter
from repro.genomics.sequence import random_genome
from repro.genomics.workloads import PrealignPair
from repro.memmgmt.regions import Region, StripedLayout


def region(name, base, size):
    return Region(name=name, base=base, size=size,
                  data_class=DataClass.GENERIC,
                  layout=StripedLayout([0]), mappings={})


class TestFmAccessorAndSteps:
    def setup_method(self):
        self.genome = random_genome(3000, seed=1)
        self.fm = FMIndex(self.genome)
        self.region = region("fm", base=1 << 20, size=self.fm.size_bytes)
        self.accessor = FmIndexAccessor(self.fm, self.region)

    def test_block_addresses_offset_by_region_base(self):
        assert self.accessor.block_addr(0) == 1 << 20
        assert self.accessor.block_addr(3) == (1 << 20) + 96

    def test_steps_alternate_compute_and_memory(self):
        steps = list(fm_seeding_steps(self.accessor, self.genome[100:160]))
        assert isinstance(steps[0], ComputeStep)
        assert steps[0].cycles == PE_COMPUTE_CYCLES[Algorithm.FM_SEEDING]
        assert isinstance(steps[1], MemStep)
        for step in steps:
            if isinstance(step, MemStep):
                for access in step.accesses:
                    assert access.size == FMIndex.BLOCK_BYTES
                    assert access.data_class is DataClass.FM_INDEX_BLOCK
                    assert access.addr >= self.region.base

    def test_step_count_matches_trace(self):
        read = self.genome[500:560]
        trace_steps = sum(1 for _ in self.fm.search_trace(read))
        generated = list(fm_seeding_steps(self.accessor, read))
        assert len(generated) == 2 * trace_steps

    def _unshared_steps(self, read):
        """The step sequence built afresh from the trace, nothing shared."""
        steps = []
        for step in self.fm.search_trace(read):
            steps.append(ComputeStep(PE_COMPUTE_CYCLES[Algorithm.FM_SEEDING]))
            steps.append(MemStep(tuple(
                AccessSpec(addr=self.region.base + self.fm.block_address(b),
                           size=FMIndex.BLOCK_BYTES, kind=AccessKind.READ,
                           data_class=DataClass.FM_INDEX_BLOCK)
                for b in step.blocks
            )))
        return steps

    def test_reads_sharing_blocks_share_the_mem_step(self):
        first = list(fm_seeding_steps(self.accessor, self.genome[100:160]))
        second = list(fm_seeding_steps(self.accessor, self.genome[700:760]))
        # Every search starts from the full interval: same first blocks.
        assert first[1] is second[1]
        assert type(first[1].accesses) is tuple
        again = list(fm_seeding_steps(self.accessor, self.genome[100:160]))
        assert all(a is b for a, b in zip(first[1::2], again[1::2]))
        for step in first[1::2]:
            assert type(step.accesses) is tuple

    def test_full_length_read_matches_unshared_steps(self):
        read = self.genome[1200:1260]
        assert len(self.fm.search_trace(read)) == len(read)
        list(fm_seeding_steps(self.accessor, self.genome[40:100]))  # warm
        assert list(fm_seeding_steps(self.accessor, read)) == \
            self._unshared_steps(read)

    def test_early_empty_read_matches_unshared_steps(self):
        read = random_genome(60, seed=99)
        assert len(self.fm.search_trace(read)) < len(read)
        list(fm_seeding_steps(self.accessor, self.genome[40:100]))  # warm
        assert list(fm_seeding_steps(self.accessor, read)) == \
            self._unshared_steps(read)

    def test_accessors_on_different_regions_do_not_share(self):
        other = FmIndexAccessor(self.fm, region("fm2", base=1 << 24,
                                                size=self.fm.size_bytes))
        read = self.genome[100:160]
        mine = list(fm_seeding_steps(self.accessor, read))
        theirs = list(fm_seeding_steps(other, read))
        assert mine[1].accesses[0].addr - theirs[1].accesses[0].addr == \
            self.region.base - (1 << 24)


class TestHashAccessorAndSteps:
    def setup_method(self):
        self.genome = random_genome(2000, seed=2)
        self.index = HashIndex(self.genome, k=13, stride=1, num_buckets=256)
        self.directory = region("dir", 0, self.index.directory_bytes)
        self.locations = region("loc", 1 << 22, self.index.locations_bytes)
        self.accessor = HashIndexAccessor(self.index, self.directory,
                                          self.locations)

    def test_header_and_location_addresses(self):
        assert self.accessor.header_addr(0) == 0
        assert self.accessor.header_addr(5) == 40
        assert self.accessor.location_addr(16) == (1 << 22) + 16

    def test_steps_touch_directory_then_locations(self):
        read = self.genome[100:200]
        steps = list(hash_seeding_steps(self.accessor, read))
        mem_steps = [s for s in steps if isinstance(s, MemStep)]
        header_steps = [
            s for s in mem_steps
            if s.accesses[0].data_class is DataClass.HASH_DIRECTORY
        ]
        location_steps = [
            s for s in mem_steps
            if s.accesses[0].data_class is DataClass.HASH_LOCATIONS
        ]
        assert header_steps and location_steps
        for step in header_steps:
            assert step.accesses[0].size == 8
        for step in location_steps:
            for access in step.accesses:
                assert self.locations.base <= access.addr < \
                    self.locations.base + self.index.locations_bytes


class TestBloomAccessorAndSteps:
    def setup_method(self):
        self.bloom = CountingBloomFilter(1 << 12, num_hashes=4, counter_bits=4)
        self.region = region("bloom", 1 << 24, self.bloom.size_bytes)
        self.accessor = BloomAccessor(self.bloom, self.region)

    def test_slot_addressing_packs_counters(self):
        # Two 4-bit counters per byte.
        assert self.accessor.slot_addr(0) == 1 << 24
        assert self.accessor.slot_addr(1) == 1 << 24
        assert self.accessor.slot_addr(2) == (1 << 24) + 1

    def test_insert_steps_are_atomic_and_update_filter(self):
        read = random_genome(60, seed=3)
        steps = list(kmer_insert_steps(self.accessor, read, 15))
        rmw = [a for s in steps if isinstance(s, MemStep) for a in s.accesses]
        assert all(a.kind is AccessKind.ATOMIC_RMW for a in rmw)
        assert len(rmw) == (60 - 15 + 1) * 4
        assert self.bloom.insertions == 60 - 15 + 1

    def test_query_steps_are_plain_reads(self):
        read = random_genome(40, seed=4)
        steps = list(kmer_query_steps(self.accessor, read, 15))
        reads = [a for s in steps if isinstance(s, MemStep) for a in s.accesses]
        assert all(a.kind is AccessKind.READ for a in reads)
        assert self.bloom.insertions == 0  # queries never mutate


class TestReferenceAccessor:
    def test_window_specs_chunking(self):
        accessor = ReferenceAccessor(region("ref", 4096, 1 << 16))
        specs = accessor.window_specs(start=0, length=512)  # 128 bytes
        assert len(specs) == 2
        assert specs[0].size == 64 and specs[1].size == 64
        assert specs[0].addr == 4096
        assert specs[1].addr == 4096 + 64

    def test_partial_tail_chunk(self):
        accessor = ReferenceAccessor(region("ref", 0, 1 << 16))
        specs = accessor.window_specs(start=10, length=100)
        total = sum(s.size for s in specs)
        assert total == (10 + 100 - 1) // 4 - 10 // 4 + 1
        assert all(s.data_class is DataClass.REFERENCE_WINDOW for s in specs)


def _compute_steps(steps):
    return [s for s in steps if isinstance(s, ComputeStep)]


class TestOneComputeStepPerGenerator:
    """Each generator yields one shared ComputeStep for all its steps."""

    def _assert_single(self, steps, cycles):
        computes = _compute_steps(steps)
        assert computes
        assert len({id(s) for s in computes}) == 1
        assert computes[0].cycles == cycles

    def test_fm_seeding(self):
        genome = random_genome(2000, seed=5)
        fm = FMIndex(genome)
        accessor = FmIndexAccessor(fm, region("fm", 0, fm.size_bytes))
        self._assert_single(
            list(fm_seeding_steps(accessor, genome[300:350])),
            PE_COMPUTE_CYCLES[Algorithm.FM_SEEDING],
        )

    def test_hash_seeding(self):
        genome = random_genome(2000, seed=6)
        index = HashIndex(genome, k=13, stride=1, num_buckets=256)
        accessor = HashIndexAccessor(
            index, region("dir", 0, index.directory_bytes),
            region("loc", 1 << 22, index.locations_bytes),
        )
        self._assert_single(
            list(hash_seeding_steps(accessor, genome[100:200])),
            PE_COMPUTE_CYCLES[Algorithm.HASH_SEEDING],
        )

    def test_kmer_insert_and_query(self):
        bloom = CountingBloomFilter(1 << 12, num_hashes=4, counter_bits=4)
        accessor = BloomAccessor(bloom, region("bloom", 0, bloom.size_bytes))
        read = random_genome(60, seed=7)
        for steps in (kmer_insert_steps(accessor, read, 15),
                      kmer_query_steps(accessor, read, 15)):
            self._assert_single(
                list(steps), PE_COMPUTE_CYCLES[Algorithm.KMER_COUNTING]
            )

    def test_prealign(self):
        accessor = ReferenceAccessor(region("ref", 0, 1 << 16))
        pair = PrealignPair(read="ACGT" * 10, window="ACGT" * 12,
                            window_start=0, is_true_site=True)
        results = []
        steps = list(prealign_steps(accessor, ShoujiFilter(max_edits=2),
                                    pair, 0, results))
        self._assert_single(steps, PE_COMPUTE_CYCLES[Algorithm.PREALIGNMENT])
        assert len(results) == 1

    def test_custom_probe(self):
        app = CustomApplication(name="probe", compute_cycles=9)
        self._assert_single(list(probe_steps(app, [0, 64, 128], 4096)), 9)
