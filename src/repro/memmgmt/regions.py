"""Regions, layouts, and virtual -> physical translation.

A **region** is one logical data structure (an FM-index, a hash directory, a
Bloom filter...) in the pool's flat virtual space.  Its **layout** decides
which DIMM each byte lives on, and a per-(region, DIMM) **address mapping**
(:mod:`repro.dram.mapping`) turns DIMM-local offsets into bank/row/column
coordinates.  The Address Translators in the NDP modules resolve requests
against a :class:`RegionMap` — this module is the data side of the memory
management framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.mapping import AddressMapping
from repro.dram.request import DataClass, DramCoord, MemoryRequest


class RegionLayout:
    """Distributes a region's bytes over DIMMs."""

    def locate(self, offset: int, requester: Optional[str] = None) -> Tuple[int, int]:
        """Map a region-local byte offset to ``(dimm_index, dimm_local_offset)``.

        ``requester`` (a fabric node name) matters only for replicated
        layouts, which serve each requester from its nearest replica.
        """
        raise NotImplementedError

    @property
    def dimm_indices(self) -> Sequence[int]:
        """Every DIMM this layout touches."""
        raise NotImplementedError

    def bytes_on_dimm(self, dimm_index: int, region_size: int) -> int:
        """Upper bound of bytes the layout places on one DIMM."""
        raise NotImplementedError


class StripedLayout(RegionLayout):
    """Round-robin stripes of ``stripe_bytes`` across a DIMM list.

    The naive scheme stripes at 64 B line granularity across every DIMM of
    the pool; placement-optimized configurations stripe across a proximity-
    filtered subset instead.
    """

    def __init__(self, dimms: Sequence[int], stripe_bytes: int = 64) -> None:
        if not dimms:
            raise ValueError("need at least one DIMM")
        if stripe_bytes <= 0:
            raise ValueError("stripe_bytes must be positive")
        self._dimms = list(dimms)
        self.stripe_bytes = stripe_bytes

    def locate(self, offset: int, requester: Optional[str] = None) -> Tuple[int, int]:
        stripe = offset // self.stripe_bytes
        which = stripe % len(self._dimms)
        local_stripe = stripe // len(self._dimms)
        return (
            self._dimms[which],
            local_stripe * self.stripe_bytes + offset % self.stripe_bytes,
        )

    @property
    def dimm_indices(self) -> Sequence[int]:
        return tuple(self._dimms)

    def bytes_on_dimm(self, dimm_index: int, region_size: int) -> int:
        if dimm_index not in self._dimms:
            return 0
        return -(-region_size // len(self._dimms)) + self.stripe_bytes


class BlockMapLayout(RegionLayout):
    """Explicit block -> DIMM assignment (profile-guided hot placement).

    The region is an array of fixed-size blocks; ``block_to_dimm[b]`` names
    the DIMM of block ``b`` and blocks are packed densely per DIMM.  The
    placement planner fills this with "hottest blocks nearest the NDP".
    """

    def __init__(self, block_bytes: int, block_to_dimm: Sequence[int]) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if len(block_to_dimm) == 0:
            raise ValueError("need at least one block")
        self.block_bytes = block_bytes
        self.block_to_dimm = np.asarray(block_to_dimm, dtype=np.int64)
        # Dense per-DIMM slot numbering, preserving block order per DIMM.
        self._slot_of_block = np.zeros(len(block_to_dimm), dtype=np.int64)
        counters: Dict[int, int] = {}
        for b, d in enumerate(self.block_to_dimm):
            d = int(d)
            self._slot_of_block[b] = counters.get(d, 0)
            counters[d] = counters.get(d, 0) + 1
        self._blocks_per_dimm = counters

    def locate(self, offset: int, requester: Optional[str] = None) -> Tuple[int, int]:
        block = offset // self.block_bytes
        if block >= len(self.block_to_dimm):
            raise ValueError(f"offset {offset} beyond mapped blocks")
        dimm = int(self.block_to_dimm[block])
        local = int(self._slot_of_block[block]) * self.block_bytes + offset % self.block_bytes
        return dimm, local

    @property
    def dimm_indices(self) -> Sequence[int]:
        return tuple(sorted(self._blocks_per_dimm))

    def bytes_on_dimm(self, dimm_index: int, region_size: int) -> int:
        return self._blocks_per_dimm.get(dimm_index, 0) * self.block_bytes


class ReplicatedLayout(RegionLayout):
    """A full copy of the region per replica group, served by proximity.

    Used for read-only indexes when capacity allows (the pool has plenty):
    every switch gets its own copy, so no index access ever crosses the
    host.  ``replicas`` maps a *home* (switch name) to an inner layout
    holding that copy; ``home_resolver`` maps a requester fabric node to
    its home switch (the planner wires in the topology's node->switch map).
    """

    def __init__(
        self,
        replicas: Dict[str, RegionLayout],
        home_resolver: Optional[Callable[[str], Optional[str]]] = None,
        default_home: Optional[str] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = dict(replicas)
        self.home_resolver = home_resolver
        self.default_home = default_home or next(iter(replicas))

    def _home_of(self, requester: Optional[str]) -> str:
        if requester is not None:
            if self.home_resolver is not None:
                home = self.home_resolver(requester)
                if home in self.replicas:
                    return home  # type: ignore[return-value]
            for home in self.replicas:
                if requester == home or requester.startswith(home + "."):
                    return home
        return self.default_home

    def locate(self, offset: int, requester: Optional[str] = None) -> Tuple[int, int]:
        return self.replicas[self._home_of(requester)].locate(offset, requester)

    @property
    def dimm_indices(self) -> Sequence[int]:
        out: List[int] = []
        for layout in self.replicas.values():
            out.extend(layout.dimm_indices)
        return tuple(sorted(set(out)))

    def bytes_on_dimm(self, dimm_index: int, region_size: int) -> int:
        return sum(
            layout.bytes_on_dimm(dimm_index, region_size)
            for layout in self.replicas.values()
        )


@dataclass
class Region:
    """One allocated data structure in the pool's virtual space."""

    name: str
    base: int
    size: int
    data_class: DataClass
    layout: RegionLayout
    #: Per-DIMM address mapping chosen by the framework (keyed by DIMM index).
    mappings: Dict[int, AddressMapping] = field(default_factory=dict)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def end(self) -> int:
        return self.base + self.size


class RegionMap:
    """The pool-wide virtual address space: sorted, non-overlapping regions."""

    def __init__(self) -> None:
        self._regions: List[Region] = []

    def add(self, region: Region) -> None:
        for existing in self._regions:
            if region.base < existing.end() and existing.base < region.end():
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)

    def remove(self, name: str) -> Region:
        for i, region in enumerate(self._regions):
            if region.name == name:
                return self._regions.pop(i)
        raise KeyError(f"no region named {name!r}")

    def find(self, addr: int) -> Region:
        """Region containing ``addr`` (binary search)."""
        regions = self._regions
        lo, hi = 0, len(regions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            region = regions[mid]
            base = region.base
            if addr < base:
                hi = mid - 1
            elif addr >= base + region.size:  # region.end(), inlined
                lo = mid + 1
            else:
                return region
        raise KeyError(f"address {addr:#x} not in any region")

    def by_name(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    # -- translation ------------------------------------------------------------

    def translate(self, request: MemoryRequest, requester: Optional[str] = None) -> None:
        """Fill ``request.dimm_index`` and ``request.coord`` in place."""
        region = self.find(request.addr)
        offset = request.addr - region.base
        dimm_index, local = region.layout.locate(offset, requester)
        mapping = region.mappings[dimm_index]
        request.dimm_index = dimm_index
        request.coord = mapping.map(local)

    def resolve(self, addr: int, requester: Optional[str] = None) -> Tuple[int, DramCoord]:
        """Translate a bare address (convenience for tests)."""
        probe = MemoryRequest(addr=addr, size=1)
        self.translate(probe, requester)
        assert probe.dimm_index is not None and probe.coord is not None
        return probe.dimm_index, probe.coord
