"""Tasks and task-step generation.

A **task** is "a DNA sequence to be processed with related information"
(Section IV-B).  Execution is *execution-driven*: each task wraps a Python
generator that runs the real algorithm (from :mod:`repro.genomics`) and
yields alternating compute/memory steps; the PEs execute those steps
against the simulated pool, so the addresses are the algorithm's actual
addresses and the functional results (seeds found, counters incremented,
filter verdicts) are real.

Step protocol
-------------
* :class:`ComputeStep` — the PE is busy for N cycles.
* :class:`MemStep` — issue the listed accesses in parallel; the task parks
  in the Task Scheduler's incoming queue (freeing its PE) until every
  operand returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.core.config import PE_COMPUTE_CYCLES, Algorithm
from repro.dram.request import AccessKind, DataClass
from repro.genomics.bloom import CountingBloomFilter
from repro.genomics.fm_index import FMIndex
from repro.genomics.hash_index import BUCKET_HEADER_BYTES, LOCATION_BYTES, HashIndex
from repro.genomics.kmer import iter_kmers, kmer_slots
from repro.genomics.prealign import PrealignResult, ShoujiFilter
from repro.genomics.workloads import PrealignPair
from repro.memmgmt.regions import Region


# The step records are immutable NamedTuples, so one record can be shared:
# each generator yields a single ComputeStep for all its compute steps, and
# the FM accessor one MemStep per distinct block tuple.  The generators
# that still build a MemStep per step (hash, k-mer) pay tuple construction,
# not the per-field ``object.__setattr__`` of a frozen dataclass.  The k-mer
# generators hash their whole read once, with
# :func:`~repro.genomics.kmer.kmer_slots`, and keep the slots as that array;
# each step converts one row.


class AccessSpec(NamedTuple):
    """One memory access a task step needs."""

    addr: int
    size: int
    kind: AccessKind = AccessKind.READ
    data_class: DataClass = DataClass.GENERIC


class ComputeStep(NamedTuple):
    """PE-busy computation for ``cycles`` DRAM cycles."""

    cycles: int


class MemStep(NamedTuple):
    """Parallel memory accesses; the task resumes when all complete."""

    accesses: Sequence[AccessSpec]


Step = Union[ComputeStep, MemStep]

_task_ids = itertools.count()


@dataclass
class Task:
    """A unit of work scheduled onto the PEs."""

    algorithm: Algorithm
    steps: Iterator[Step]
    payload_bytes: int = 32
    task_id: int = field(default_factory=lambda: next(_task_ids))
    on_done: Optional[Callable[["Task"], None]] = None
    #: Outstanding operand count while parked (Task Scheduler scoreboard).
    waiting_operands: int = 0
    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    #: Per-(task, module) callback cache filled in by the NDP module so a
    #: task's thousands of compute resumptions and operand returns reuse
    #: two callables instead of allocating a closure per event.  ``cb_owner``
    #: identifies the module the cached pair is bound to; task migration
    #: (MEDAL) moves tasks between modules, which invalidates the pair.
    cb_owner: object = None
    resume_cb: Optional[Callable[[], None]] = None
    operand_cb: Optional[Callable[..., None]] = None


# ---------------------------------------------------------------------------
# Region accessors: genomics data structure <-> pool virtual addresses.
# ---------------------------------------------------------------------------


class FmIndexAccessor:
    """FM-index blocks inside a region.

    A backward-search step reads the occ blocks named by its ``blocks``
    tuple; :attr:`mem_steps` holds one shared :class:`MemStep` per distinct
    tuple, so every read that touches the same blocks yields the same
    record instead of building a new one per step.  On the bench workloads
    (seed 0) the table serves 83.4% of fm-seeding's FM memory steps, 72.8%
    of campaign's and 83.4% of mt-serving's.
    """

    def __init__(self, fm: FMIndex, region: Region) -> None:
        self.fm = fm
        self.region = region
        #: ``step.blocks`` -> the :class:`MemStep` reading those blocks.
        self.mem_steps: Dict[Tuple[int, ...], MemStep] = {}

    def block_addr(self, block: int) -> int:
        return self.region.base + self.fm.block_address(block)

    def _build_mem_step(self, blocks: Tuple[int, ...]) -> MemStep:
        """Build the memory step reading ``blocks`` and store it in the table."""
        step = self.mem_steps[blocks] = MemStep(tuple(
            AccessSpec(
                addr=self.block_addr(block),
                size=FMIndex.BLOCK_BYTES,
                data_class=DataClass.FM_INDEX_BLOCK,
            )
            for block in blocks
        ))
        return step


class HashIndexAccessor:
    """Hash directory + location store across two regions."""

    def __init__(self, index: HashIndex, directory: Region, locations: Region) -> None:
        self.index = index
        self.directory = directory
        self.locations = locations

    def header_addr(self, bucket: int) -> int:
        return self.directory.base + self.index.header_address(bucket)

    def location_addr(self, byte_offset_in_store: int) -> int:
        return self.locations.base + byte_offset_in_store


class BloomAccessor:
    """Counting Bloom filter counters inside a region.

    Counters are sub-byte; an access touches the byte holding the slot.
    """

    def __init__(self, bloom: CountingBloomFilter, region: Region) -> None:
        self.bloom = bloom
        self.region = region

    def slot_addr(self, slot: int) -> int:
        return self.region.base + (slot * self.bloom.counter_bits) // 8


class ReferenceAccessor:
    """Reference genome bases (2-bit packed) inside a region."""

    def __init__(self, region: Region, bases_per_byte: int = 4) -> None:
        self.region = region
        self.bases_per_byte = bases_per_byte

    def window_specs(self, start: int, length: int) -> List[AccessSpec]:
        """64 B-chunked reads covering ``length`` bases at ``start``."""
        first_byte = start // self.bases_per_byte
        last_byte = (start + length - 1) // self.bases_per_byte
        total = last_byte - first_byte + 1
        specs = []
        for off in range(0, total, 64):
            specs.append(
                AccessSpec(
                    addr=self.region.base + first_byte + off,
                    size=min(64, total - off),
                    data_class=DataClass.REFERENCE_WINDOW,
                )
            )
        return specs


# ---------------------------------------------------------------------------
# Per-algorithm step generators.
# ---------------------------------------------------------------------------


def fm_seeding_steps(accessor: FmIndexAccessor, read: str) -> Iterator[Step]:
    """FM-index seeding: one backward-search step per read symbol.

    Each step costs the FM engine's 16 cycles and two 32 B occ-block reads
    (deduplicated when top/bot share a block), exactly MEDAL/BEACON's
    kernel.  The memory steps are the accessor's shared records.
    """
    compute = ComputeStep(PE_COMPUTE_CYCLES[Algorithm.FM_SEEDING])
    mem_steps = accessor.mem_steps
    for step in accessor.fm.search_trace(read):
        yield compute
        try:
            mem = mem_steps[step.blocks]
        except KeyError:
            mem = accessor._build_mem_step(step.blocks)
        yield mem


def hash_seeding_steps(accessor: HashIndexAccessor, read: str) -> Iterator[Step]:
    """Hash-index seeding: hash -> directory read -> stream the bucket.

    A bucket's matching locations are contiguous in the location store, so
    the streaming reads are spatially local (the layout the data-aware
    mapping keeps row-major).
    """
    compute = ComputeStep(PE_COMPUTE_CYCLES[Algorithm.HASH_SEEDING])
    index = accessor.index
    read_kind = AccessKind.READ
    directory, locations = DataClass.HASH_DIRECTORY, DataClass.HASH_LOCATIONS
    directory_base = accessor.directory.base
    # A location's pool address from its index offset (directory first).
    store_base = accessor.locations.base - index.directory_bytes
    for query in index.seed_read(read):
        yield compute
        yield MemStep((AccessSpec(
            directory_base + query.bucket * BUCKET_HEADER_BYTES,
            BUCKET_HEADER_BYTES, read_kind, directory,
        ),))
        if query.location_addrs:
            first = store_base + query.location_addrs[0]
            total = len(query.location_addrs) * LOCATION_BYTES
            yield MemStep(tuple([
                AccessSpec(first + off, min(64, total - off), read_kind, locations)
                for off in range(0, total, 64)
            ]))


def kmer_insert_steps(accessor: BloomAccessor, read: str, k: int) -> Iterator[Step]:
    """k-mer counting insertion: hash then ``h`` atomic counter increments.

    The functional filter is updated as a side effect, so after the
    simulation the counter values are the real abundances (within Bloom
    overcount), and the RMW data-race handling of the Atomic Engines
    (Fig. 7) is exercised by every increment.  The read is hashed once, by
    :func:`kmer_slots`; each step applies its k-mer's row.  A read that
    :func:`kmer_slots` cannot hash (not uppercase ACGT, or ``k > 32``) is
    hashed per k-mer after each compute step, so it raises where the
    scalar path always raised.
    """
    compute = ComputeStep(PE_COMPUTE_CYCLES[Algorithm.KMER_COUNTING])
    bloom = accessor.bloom
    base, bits = accessor.region.base, bloom.counter_bits
    rmw, counter = AccessKind.ATOMIC_RMW, DataClass.BLOOM_COUNTER
    rows = kmer_slots(read, k, bloom.num_hashes, bloom.num_counters)
    for item in iter_kmers(read, k) if rows is None else rows:
        yield compute
        slots = bloom.slots(item) if rows is None else item.tolist()
        bloom.insert_slots(slots)
        # base + slot * bits // 8 is accessor.slot_addr(slot), inlined.
        yield MemStep(tuple([
            AccessSpec(base + slot * bits // 8, 1, rmw, counter) for slot in slots
        ]))


def kmer_query_steps(accessor: BloomAccessor, read: str, k: int) -> Iterator[Step]:
    """Pass-2 counting: plain reads of the merged filter's counters.

    Hashed as in :func:`kmer_insert_steps`: once per read, per k-mer when
    :func:`kmer_slots` cannot hash the read.
    """
    compute = ComputeStep(PE_COMPUTE_CYCLES[Algorithm.KMER_COUNTING])
    bloom = accessor.bloom
    base, bits = accessor.region.base, bloom.counter_bits
    read_kind, counter = AccessKind.READ, DataClass.BLOOM_COUNTER
    rows = kmer_slots(read, k, bloom.num_hashes, bloom.num_counters)
    for item in iter_kmers(read, k) if rows is None else rows:
        yield compute
        slots = bloom.slots(item) if rows is None else item.tolist()
        yield MemStep(tuple([
            AccessSpec(base + slot * bits // 8, 1, read_kind, counter)
            for slot in slots
        ]))


def prealign_steps(
    accessor: ReferenceAccessor,
    shouji: ShoujiFilter,
    pair: PrealignPair,
    window_start: int,
    results: List[PrealignResult],
) -> Iterator[Step]:
    """Pre-alignment: fetch the candidate window, run the Shouji grid."""
    yield MemStep(accessor.window_specs(window_start, len(pair.window)))
    yield ComputeStep(PE_COMPUTE_CYCLES[Algorithm.PREALIGNMENT])
    results.append(shouji.filter(pair.read, pair.window))
