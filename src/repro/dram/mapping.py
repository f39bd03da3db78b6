"""Address mapping schemes (Fig. 10).

A mapping turns a *region-local* byte address into physical DRAM
coordinates.  The memory-management framework gives every allocated region
its own mapping instance with a private ``row_base``, so regions with
different schemes occupy disjoint rows of the same DIMM and can never
collide.

The two principles of the paper's architecture & data aware scheme
(Section IV-C) appear as three concrete mappings:

* :class:`RankInterleaveMapping` — rank-level interleaving of 64 B lines;
  the only option for unmodified CXL-DIMMs (lockstep chips) and the naive
  scheme of prior work.
* :class:`ChipInterleaveMapping` — chip-group-level interleaving of
  fine-grained units; exploits the CXLG-DIMM's individual chip selects
  (principle 1).  The group size is the multi-chip-coalescing factor.
* :class:`RowLocalityMapping` — consecutive addresses fill a DRAM row
  before moving to the next bank; used for spatially-local data such as
  hash-bucket location lists (principle 2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

from repro.dram.request import DramCoord
from repro.dram.timing import DimmGeometry

#: The CXL transfer line / lockstep access granularity in bytes.
LINE_BYTES = 64


class AddressMapping(ABC):
    """Region-local byte address -> :class:`DramCoord`."""

    def __init__(self, geometry: DimmGeometry, row_base: int = 0) -> None:
        self.geometry = geometry
        if row_base < 0:
            raise ValueError("row_base must be non-negative")
        self.row_base = row_base

    @abstractmethod
    def coords(self, addr: int) -> Tuple[int, int, int, int, int, int]:
        """The :class:`DramCoord` fields of region-local byte ``addr`` as a
        plain tuple: what address translation stores on a request."""

    def map(self, addr: int) -> DramCoord:
        """Coordinates of region-local byte ``addr``."""
        return DramCoord(*self.coords(addr))

    @abstractmethod
    def rows_used(self, region_bytes: int) -> int:
        """How many rows (per rank x bank x group) a region of this size
        consumes; the allocator stacks ``row_base`` values with this."""

    @property
    @abstractmethod
    def chips_per_group(self) -> int:
        """Chips activated per access under this mapping."""


class RankInterleaveMapping(AddressMapping):
    """64 B lines interleaved across banks then ranks; lockstep chips."""

    def __init__(self, geometry: DimmGeometry, row_base: int = 0) -> None:
        super().__init__(geometry, row_base)
        self._lines_per_row = geometry.row_bytes_per_rank // LINE_BYTES

    @property
    def chips_per_group(self) -> int:
        return self.geometry.chips_per_rank

    def coords(self, addr: int) -> Tuple[int, int, int, int, int, int]:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        geo = self.geometry
        line = addr // LINE_BYTES
        bank = line % geo.banks
        rank = (line // geo.banks) % geo.ranks
        slot = line // (geo.banks * geo.ranks)
        row = slot // self._lines_per_row
        column = (slot % self._lines_per_row) * LINE_BYTES + addr % LINE_BYTES
        return (rank, bank, self.row_base + row, column, 0,
                geo.chips_per_rank)

    def rows_used(self, region_bytes: int) -> int:
        bytes_per_row_layer = (
            self.geometry.row_bytes_per_rank * self.geometry.banks * self.geometry.ranks
        )
        return -(-region_bytes // bytes_per_row_layer)


class ChipInterleaveMapping(AddressMapping):
    """Fine-grained units interleaved across chip groups, then banks, ranks.

    ``chips_per_group`` is the multi-chip-coalescing factor: 1 reproduces
    MEDAL's single-chip fine-grained access, 16 degenerates to lockstep.
    """

    def __init__(
        self,
        geometry: DimmGeometry,
        chips_per_group: int = 1,
        row_base: int = 0,
        unit_bytes: int = 0,
    ) -> None:
        """``unit_bytes`` is the interleaving granularity — the size of the
        fine-grained element (e.g. a 32 B occ block), which must live wholly
        inside one chip group so a single chip-select burst sequence fetches
        it.  Defaults to one burst of the group."""
        super().__init__(geometry, row_base)
        self.num_groups = geometry.chip_groups(chips_per_group)
        self._chips_per_group = chips_per_group
        if unit_bytes <= 0:
            unit_bytes = geometry.burst_bytes_per_chip * chips_per_group
        self.unit_bytes = unit_bytes
        self._row_bytes_per_group = geometry.row_bytes_per_chip * chips_per_group
        if self._row_bytes_per_group % self.unit_bytes:
            raise ValueError(
                f"unit_bytes {unit_bytes} must divide the group row size "
                f"{self._row_bytes_per_group}"
            )
        self._units_per_row = self._row_bytes_per_group // self.unit_bytes

    @property
    def chips_per_group(self) -> int:
        return self._chips_per_group

    def coords(self, addr: int) -> Tuple[int, int, int, int, int, int]:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        geo = self.geometry
        unit = addr // self.unit_bytes
        group = unit % self.num_groups
        bank = (unit // self.num_groups) % geo.banks
        rank = (unit // (self.num_groups * geo.banks)) % geo.ranks
        slot = unit // (self.num_groups * geo.banks * geo.ranks)
        row = slot // self._units_per_row
        column = (slot % self._units_per_row) * self.unit_bytes + addr % self.unit_bytes
        return (rank, bank, self.row_base + row, column, group,
                self._chips_per_group)

    def rows_used(self, region_bytes: int) -> int:
        bytes_per_row_layer = (
            self._row_bytes_per_group
            * self.num_groups
            * self.geometry.banks
            * self.geometry.ranks
        )
        return -(-region_bytes // bytes_per_row_layer)


class RowLocalityMapping(AddressMapping):
    """Row-major: consecutive addresses stay in one row as long as possible.

    Used for data with spatial locality so that, e.g., all matching
    locations of one hash bucket land in a single DRAM row (one activate,
    many column hits).  Operates at rank lockstep (the data lives on
    unmodified CXL-DIMMs in BEACON-S) unless a chip group size is given.
    """

    def __init__(
        self,
        geometry: DimmGeometry,
        chips_per_group: int = 0,
        row_base: int = 0,
    ) -> None:
        super().__init__(geometry, row_base)
        if chips_per_group <= 0:
            chips_per_group = geometry.chips_per_rank
        self.num_groups = geometry.chip_groups(chips_per_group)
        self._chips_per_group = chips_per_group
        self.row_bytes = geometry.row_bytes_per_chip * chips_per_group

    @property
    def chips_per_group(self) -> int:
        return self._chips_per_group

    def coords(self, addr: int) -> Tuple[int, int, int, int, int, int]:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        geo = self.geometry
        row_slab = addr // self.row_bytes
        column = addr % self.row_bytes
        group = row_slab % self.num_groups
        bank = (row_slab // self.num_groups) % geo.banks
        rank = (row_slab // (self.num_groups * geo.banks)) % geo.ranks
        row = row_slab // (self.num_groups * geo.banks * geo.ranks)
        return (rank, bank, self.row_base + row, column, group,
                self._chips_per_group)

    def rows_used(self, region_bytes: int) -> int:
        bytes_per_row_layer = (
            self.row_bytes * self.num_groups * self.geometry.banks * self.geometry.ranks
        )
        return -(-region_bytes // bytes_per_row_layer)
