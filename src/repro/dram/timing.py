"""DDR4 timing and geometry parameters (Table I configuration).

All timings are in DRAM clock cycles of a DDR4-1600 part (tCK = 1.25 ns,
CL-tRCD-tRP = 22-22-22 per Table I).  The geometry matches Table I's DIMM:
8 Gb x4 devices, 4 ranks of 16 chips, 4 bank groups x 4 banks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property


@dataclass(frozen=True)
class DramTiming:
    """DDR4 timing constraints in DRAM cycles.

    Derived figures use ``cached_property`` (which writes straight into the
    instance ``__dict__``, bypassing the frozen ``__setattr__``) because the
    DRAM controller reads them in its per-request planning loop.
    """

    tck_ns: float = 1.25   # DDR4-1600
    tcas: int = 22         # CL: read command -> first data
    trcd: int = 22         # ACT -> column command
    trp: int = 22          # PRE -> ACT
    tras: int = 52         # ACT -> PRE (row must stay open this long)
    tbl: int = 4           # burst of 8 on a DDR bus = 4 clock cycles
    tccd: int = 4          # column command spacing (same bank group)
    trrd: int = 6          # ACT -> ACT, different banks
    tfaw: int = 32         # four-activate window
    twr: int = 12          # write recovery before PRE
    twl: int = 16          # write command -> first data (CWL)
    trefi: int = 6240      # refresh interval (7.8 us at 1.25 ns/cycle)
    trfc: int = 280        # refresh cycle time (350 ns for 8 Gb parts)

    def __post_init__(self) -> None:
        # Access completions are pushed onto the scheduler unchecked, so
        # every cycle count they are built from must be an int.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "tck_ns" and type(value) is not int:
                raise ValueError(f"{f.name} must be an int, got {value!r}")

    @cached_property
    def trc(self) -> int:
        """Minimum time between activates to the same bank."""
        return self.tras + self.trp

    @cached_property
    def row_hit_read(self) -> int:
        """Cycles from issuing a read on an open row to last data beat."""
        return self.tcas + self.tbl

    @cached_property
    def row_miss_read(self) -> int:
        """Closed/conflicting row: PRE + ACT + read."""
        return self.trp + self.trcd + self.tcas + self.tbl

    @cached_property
    def row_closed_read(self) -> int:
        """Precharged bank: ACT + read."""
        return self.trcd + self.tcas + self.tbl

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.tck_ns

    def ns_to_cycles(self, ns: float) -> int:
        """Ceiling conversion so latencies never round down to zero."""
        return max(0, int(-(-ns // self.tck_ns)))


@dataclass(frozen=True)
class DimmGeometry:
    """Physical organization of one DIMM (Table I)."""

    ranks: int = 4
    chips_per_rank: int = 16
    bank_groups: int = 4
    banks_per_group: int = 4
    #: Bytes one chip contributes per row (8 Gb x4 device: 1 KiB page).
    row_bytes_per_chip: int = 1024
    #: Bytes one x4 chip delivers per BL8 burst (8 beats x 4 bits).
    burst_bytes_per_chip: int = 4
    #: Simulated per-DIMM capacity.  The paper's DIMMs are 64 GiB; the
    #: simulator only touches the index footprint, so the default is kept
    #: at the real value and the mappings simply never exceed it.
    capacity_bytes: int = 64 << 30

    @cached_property
    def banks(self) -> int:
        """Flat banks per rank."""
        return self.bank_groups * self.banks_per_group

    @cached_property
    def row_bytes_per_rank(self) -> int:
        """Bytes per row across a lockstep rank (all chips)."""
        return self.row_bytes_per_chip * self.chips_per_rank

    @cached_property
    def burst_bytes_per_rank(self) -> int:
        """Bytes per burst across a lockstep rank: the 64 B line."""
        return self.burst_bytes_per_chip * self.chips_per_rank

    def chip_groups(self, chips_per_group: int) -> int:
        """Number of chip-select groups at a given coalescing factor."""
        if chips_per_group <= 0 or self.chips_per_rank % chips_per_group:
            raise ValueError(
                f"chips_per_group must divide {self.chips_per_rank}, "
                f"got {chips_per_group}"
            )
        return self.chips_per_rank // chips_per_group

    def rows_per_bank(self, capacity_bytes: int = 0) -> int:
        """Rows per bank implied by the capacity (per rank, per bank)."""
        cap = capacity_bytes or self.capacity_bytes
        bytes_per_bank_row = self.row_bytes_per_rank
        total_rows = cap // (bytes_per_bank_row * self.banks * self.ranks)
        return max(1, int(total_rows))
