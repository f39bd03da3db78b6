"""Memory request/response records shared across the whole stack."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional


class AccessKind(enum.Enum):
    """What a request does to memory."""

    READ = "read"
    WRITE = "write"
    #: Atomic read-modify-write; orchestrated by an Atomic Engine (Fig. 7)
    #: as a read + compute + write sequence against the same address.
    ATOMIC_RMW = "atomic_rmw"


class DataClass(enum.Enum):
    """Which index structure an address belongs to.

    The architecture & data aware address mapping (Section IV-C) keys its
    placement decisions on the data type carried in each memory request;
    this enum is that tag.
    """

    FM_INDEX_BLOCK = "fm_index_block"        # 32 B occ/BWT blocks, fine-grained
    HASH_DIRECTORY = "hash_directory"        # 8 B bucket headers
    HASH_LOCATIONS = "hash_locations"        # 4 B location entries, spatially local
    BLOOM_COUNTER = "bloom_counter"          # sub-byte counters, fine-grained RMW
    REFERENCE_WINDOW = "reference_window"    # sequential reference slices
    READ_INPUT = "read_input"                # streaming input reads
    GENERIC = "generic"

    @property
    def spatially_local(self) -> bool:
        """Whether consecutive elements are accessed together (row-major
        placement candidates per principle 2 of the mapping scheme)."""
        return self in (
            DataClass.HASH_LOCATIONS,
            DataClass.REFERENCE_WINDOW,
            DataClass.READ_INPUT,
        )

    @property
    def fine_grained(self) -> bool:
        """Whether accesses are much smaller than a 64 B line."""
        return self in (
            DataClass.FM_INDEX_BLOCK,
            DataClass.HASH_DIRECTORY,
            DataClass.HASH_LOCATIONS,
            DataClass.BLOOM_COUNTER,
        )


class DramCoord(NamedTuple):
    """Physical DRAM coordinates of an address within one DIMM.

    A ``NamedTuple`` rather than a frozen dataclass: one coordinate is
    constructed per address-mapped request, and tuple construction skips
    the per-field ``object.__setattr__`` cost frozen dataclasses pay.
    """

    rank: int
    bank: int          # flat bank index (bank_group * banks_per_group + bank)
    row: int
    column: int        # byte offset within the (chip-group) row
    chip_group: int    # which chip-select group serves the access
    chips_per_group: int = 16  # group width (16 == lockstep rank access)

    @property
    def first_chip(self) -> int:
        """Index of the first physical chip in the accessed group."""
        return self.chip_group * self.chips_per_group


_request_ids = itertools.count()


@dataclass(slots=True)
class MemoryRequest:
    """One memory access travelling through the pool.

    ``addr`` is a *pool-global* physical byte address; the memory-management
    framework's region map locates the owning DIMM and the DIMM's address
    mapping derives the :class:`DramCoord`.  ``size`` is the number of
    *useful* bytes — the Data Packer decides how many wire bytes they cost.
    """

    addr: int
    size: int
    kind: AccessKind = AccessKind.READ
    data_class: DataClass = DataClass.GENERIC
    task_id: Optional[int] = None
    source: str = ""
    on_complete: Optional[Callable[["MemoryRequest"], None]] = None
    req_id: int = field(default_factory=_request_ids.__next__)
    issued_at: Optional[int] = None
    completed_at: Optional[int] = None
    #: Cycle the request first reached its DIMM controller (parked or
    #: queued) — the boundary between fabric time and controller queueing
    #: in the latency-attribution profiler.
    mc_enqueued_at: Optional[int] = None
    #: Filled in during routing.
    dimm_index: Optional[int] = None
    coord: Optional[DramCoord] = None
    #: ``kind is WRITE``, fixed at construction; the DRAM timing path reads
    #: this per queued request per scheduling pass, so it is a plain
    #: attribute.
    is_write: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if self.size <= 0:
            raise ValueError(f"request size must be positive, got {self.size}")
        self.is_write = self.kind is AccessKind.WRITE

    @property
    def latency(self) -> Optional[int]:
        """End-to-end cycles, available once completed."""
        if self.issued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def complete(self, now: int) -> None:
        """Mark completion and invoke the continuation."""
        self.completed_at = now
        if self.on_complete is not None:
            self.on_complete(self)

    def fire_completion(self) -> None:
        """Invoke the continuation; ``completed_at`` must already be set.

        The DRAM controller knows the completion cycle at issue time, so it
        stamps ``completed_at`` up front and schedules this zero-argument
        bound method directly instead of allocating a closure per request.
        """
        if self.on_complete is not None:
            self.on_complete(self)
