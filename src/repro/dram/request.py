"""Memory request/response records shared across the whole stack."""

from __future__ import annotations

import enum
import itertools
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
_next_request_id = _request_ids.__next__

#: Wire payload of a read request, and of the acknowledgement that answers
#: a write or an atomic (address + metadata).
READ_REQUEST_PAYLOAD = 8
WRITE_ACK_PAYLOAD = 2

_READ = AccessKind.READ


class MemoryRequest:
    """One memory access travelling through the pool, and its round trip.

    ``addr`` is a *pool-global* physical byte address; the memory-management
    framework's region map locates the owning DIMM (``dimm_index``) and the
    DIMM's address mapping fills in the DRAM coordinates, which the request
    carries inline (``rank`` .. ``chips_per_group``, the fields of a
    :class:`DramCoord`; :attr:`coord` reads or sets them as one).  ``size``
    is the number of *useful* bytes — the Data Packer decides how many wire
    bytes they cost.

    The request is also its own flight through
    :class:`~repro.cxl.topology.MemoryPool`: the pool stores itself, the
    route back, the request leg's message and ``on_done`` on it, and the
    request's bound methods are the round trip's later steps.  The DRAM
    controller pushes :meth:`respond` at the completion cycle, which
    re-aims the same message at the route back; :meth:`deliver` ends the
    trip at the requester.  A delivered request holds no message and no
    callback but its own ``on_complete``, so a finished trip leaves no
    reference cycle behind.  A request submitted straight to a controller
    (no pool) completes in :meth:`respond`.
    """

    __slots__ = (
        "addr", "size", "kind", "data_class", "task_id", "source",
        "on_complete", "req_id", "is_write", "issued_at", "completed_at",
        "mc_enqueued_at", "dimm_index", "rank", "bank", "row", "column",
        "chip_group", "chips_per_group", "pool", "message", "route_back",
        "on_done",
    )

    def __init__(
        self,
        addr: int,
        size: int,
        kind: AccessKind = AccessKind.READ,
        data_class: DataClass = DataClass.GENERIC,
        task_id: Optional[int] = None,
        source: str = "",
        on_complete: Optional[Callable[["MemoryRequest"], None]] = None,
    ) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        self.addr = addr
        self.size = size
        self.kind = kind
        self.data_class = data_class
        self.task_id = task_id
        self.source = source
        self.on_complete = on_complete
        self.req_id = _next_request_id()
        #: ``kind is WRITE``; the DRAM timing path reads it per queued
        #: request per scheduling pass, so it is a plain attribute.
        self.is_write = kind is AccessKind.WRITE
        self.issued_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        #: Cycle the request first reached its DIMM controller (parked or
        #: queued) — the boundary between fabric time and controller
        #: queueing in the latency-attribution profiler.
        self.mc_enqueued_at: Optional[int] = None
        #: Filled in by address translation, with the coordinates; an
        #: unmapped request has ``rank is None``.
        self.dimm_index: Optional[int] = None
        self.rank: Optional[int] = None
        #: The round trip's state, set by
        #: :meth:`~repro.cxl.topology.MemoryPool.access` or ``dram_access``:
        #: the pool running it, the request leg's message (until the
        #: response leg starts), the route back's hops, and the callback
        #: :meth:`deliver` hands the request to.
        self.pool = None
        self.message = None
        self.route_back = None
        self.on_done: Optional[Callable[["MemoryRequest"], None]] = None

    def __repr__(self) -> str:
        return (f"MemoryRequest(req_id={self.req_id}, kind={self.kind.value}, "
                f"addr={self.addr:#x}, size={self.size})")

    @property
    def coord(self) -> Optional[DramCoord]:
        """The DRAM coordinates as a :class:`DramCoord` (``None`` until
        mapped); setting one stores its fields inline."""
        if self.rank is None:
            return None
        return DramCoord(self.rank, self.bank, self.row, self.column,
                         self.chip_group, self.chips_per_group)

    @coord.setter
    def coord(self, coord: Optional[DramCoord]) -> None:
        if coord is None:
            self.rank = None
            return
        (self.rank, self.bank, self.row, self.column, self.chip_group,
         self.chips_per_group) = coord

    @property
    def latency(self) -> Optional[int]:
        """End-to-end cycles, available once completed."""
        if self.issued_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def read_half(self, source: str) -> "MemoryRequest":
        """A read of this request's mapped location, issued from
        ``source``: the first half of a read-modify-write."""
        half = MemoryRequest(self.addr, self.size, _READ, self.data_class,
                             self.task_id, source)
        half.dimm_index = self.dimm_index
        (half.rank, half.bank, half.row, half.column, half.chip_group,
         half.chips_per_group) = (self.rank, self.bank, self.row, self.column,
                                  self.chip_group, self.chips_per_group)
        return half

    def reissue(self, kind: AccessKind) -> None:
        """Reuse this record for a new ``kind`` access to the same
        location: a fresh ``req_id``, and no stamps yet."""
        self.kind = kind
        self.is_write = kind is AccessKind.WRITE
        self.req_id = _next_request_id()
        self.issued_at = self.completed_at = self.mc_enqueued_at = None

    def complete(self, now: int) -> None:
        """Mark completion and invoke the continuation."""
        self.completed_at = now
        if self.on_complete is not None:
            self.on_complete(self)

    # -- round-trip steps ------------------------------------------------------

    def respond(self) -> None:
        """DRAM served the request: start the response leg.

        The DRAM controller pushes this at ``completed_at``.  A read is
        answered with its data, anything else with an acknowledgement.
        """
        pool = self.pool
        if pool is None:
            # Submitted straight to a controller: no fabric to cross.
            if self.on_complete is not None:
                self.on_complete(self)
            return
        message = self.message
        if message is None:
            # A same-node trip: the local controller latency again.
            engine = pool.engine
            pool.scheduler.push(engine.now + pool.local_latency,
                                self.deliver)
            return
        self.message = None
        back = self.route_back
        message.reaim(
            self.size if self.kind is _READ else WRITE_ACK_PAYLOAD,
            back, self.deliver,
        )
        back[0].send(message)

    def deliver(self) -> None:
        """The response reached the requester: stamp ``completed_at``,
        close the trace span and call ``on_done``."""
        pool = self.pool
        engine = pool.engine
        self.completed_at = engine.now
        if engine.tracer:
            pool.trace_req_end(self)
        on_done = self.on_done
        self.on_done = None
        if on_done is not None:
            on_done(self)
