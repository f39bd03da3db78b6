"""DIMM device model: banks, chips, energy, and kind."""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.dram.bank import Bank
from repro.dram.chip import ChipAccessCounters
from repro.dram.power import DramEnergyModel, DramEnergyParams
from repro.dram.refresh import RefreshEngine
from repro.dram.request import DramCoord
from repro.dram.timing import DimmGeometry, DramTiming
from repro.sim.component import Component


class DimmKind(enum.Enum):
    """Which flavour of DIMM this is."""

    #: Unmodified CXL-DIMM: lockstep rank access only, no NDP logic.
    UNMODIFIED_CXL = "unmodified_cxl"
    #: CXLG-DIMM: NDP module on the PCB, per-chip chip selects (BEACON-D).
    CXLG = "cxlg"
    #: Customized DDR-DIMM of the prior work (MEDAL/NEST), also per-chip CS.
    DDR_CUSTOM = "ddr_custom"
    #: Plain DDR-DIMM (CPU baseline memory).
    DDR_PLAIN = "ddr_plain"

    @property
    def fine_grained(self) -> bool:
        """Whether per-chip chip-select access is available."""
        return self in (DimmKind.CXLG, DimmKind.DDR_CUSTOM)


class _Run:
    """Chips ``[lo, hi)`` of one (rank, bank index) whose bank timing state
    is identical, served by one :class:`Bank`.

    ``planned`` is set the first time a timing plan covers the chips; only
    planned runs take part in refresh (see :meth:`Dimm.apply_refresh`).
    The bank's own hit/miss counters are not per-chip totals — the DIMM
    keeps those.
    """

    __slots__ = ("lo", "hi", "bank", "planned")

    def __init__(self, lo: int, hi: int, bank: Bank, planned: bool) -> None:
        self.lo = lo
        self.hi = hi
        self.bank = bank
        self.planned = planned

    def same_state(self, other: "_Run") -> bool:
        a, b = self.bank, other.bank
        return (
            self.planned == other.planned
            and a.open_row == b.open_row
            and a.free_at == b.free_at
            and a.last_act_at == b.last_act_at
        )


class Dimm(Component):
    """One DIMM: bank state machines per (rank, chip, bank) plus accounting.

    Bank state is tracked per *chip* so that chip groups of any width —
    lockstep ranks, single chips, coalesced multi-chip groups — interact
    correctly when regions with different mappings share a DIMM.  Chips of
    one (rank, bank index) whose state is identical share one :class:`Bank`
    as a *run*, so a lockstep access plans and commits one bank, not one per
    chip.  Runs split at the edges of narrower accesses and merge again once
    neighbours are equal; the representation stays behind
    :meth:`plan_access` and :meth:`commit_access`.
    """

    def __init__(
        self,
        engine,
        name: str,
        parent,
        kind: DimmKind,
        geometry: DimmGeometry = DimmGeometry(),
        timing: DramTiming = DramTiming(),
        energy_params: DramEnergyParams = DramEnergyParams(),
    ) -> None:
        super().__init__(engine, name, parent)
        self.kind = kind
        self.geometry = geometry
        self.timing = timing
        # The geometry scalars the index math needs, hoisted to plain ints:
        # going through the DimmGeometry properties costs a descriptor call
        # per lookup on the simulator's hottest path.
        self._banks_per_rank = geometry.banks
        self._chips_per_rank = geometry.chips_per_rank
        # Chip -> run, flat over ((rank, bank index), chip).  A slot stays
        # ``None`` until a plan first touches it: a sweep configuration
        # builds hundreds of DIMMs whose workloads often reach only a
        # fraction of the bank space, and an untouched slot is one fresh,
        # unplanned run.
        self._runs: List[Optional[_Run]] = [None] * (
            geometry.ranks * geometry.banks * geometry.chips_per_rank
        )
        # The DDR4 command timings the planning loop reads (~4 plans per
        # request), hoisted to plain ints.
        self._trc = timing.trc
        self._tras = timing.tras
        self._trp = timing.trp
        self._trcd = timing.trcd
        self._tcas = timing.tcas
        self._twl = timing.twl
        # Per-(rank, chip) data-bus availability, flat.
        self._chip_free_at: List[int] = [0] * (
            geometry.ranks * geometry.chips_per_rank
        )
        # Per-chip bank totals, credited by run width at commit.
        self._activations = 0
        self._row_hits = 0
        self._row_conflicts = 0
        self.chip_counters = ChipAccessCounters(geometry)
        self.energy = DramEnergyModel(
            self.stats,
            total_chips=geometry.ranks * geometry.chips_per_rank,
            tck_ns=timing.tck_ns,
            params=energy_params,
        )
        self.refresh = RefreshEngine(self)

    # -- access timing --------------------------------------------------------------

    def plan_access(
        self, coord: DramCoord, is_write: bool
    ) -> Tuple[int, int, bool, str]:
        """Timing plan ``(start, pre_data, activate, row_state)`` for an
        access to ``coord``.  No timing state changes; the covered chips
        are only flagged as planned (see :meth:`apply_refresh`).

        ``coord`` is a :class:`DramCoord` or anything with its fields, such
        as a mapped :class:`~repro.dram.request.MemoryRequest` (the
        controller passes the request itself); :meth:`commit_access` reads
        it the same way.

        ``start`` is now-independent: the earliest cycle the bank and bus
        state permits, so an access issued at ``now`` starts at
        ``max(now, start)``.  The group's first chip classifies the access
        (``pre_data`` command cycles before data, whether it activates, and
        ``row_state`` — ``"hit"``, ``"miss"`` or ``"conflict"``).  Every
        run of the group then gates ``start``: its bank's ``free_at``, and
        for an activation tRC after the bank's last ACT plus, when the
        bank has a row open, tRAS before that row's precharge.  The
        command phase may begin while a chip's data bus still serves an
        earlier transfer; only the data windows serialize on the bus.
        """
        width = coord.chips_per_group
        first = coord.chip_group * width
        end = first + width
        chips = self._chips_per_rank
        base = (coord.rank * self._banks_per_rank + coord.bank) * chips
        runs = self._runs
        run = runs[base + first]
        if run is None or not run.planned or run.hi < end:
            run = self._mark_planned(base, first, end)
        # Classify on the head run's bank: the column latency, behind an
        # ACT for a closed bank, behind PRE + ACT for another open row.
        open_row = run.bank.open_row
        pre_data = self._twl if is_write else self._tcas
        if open_row == coord.row:
            activate = False
            row_state = "hit"
        elif open_row is None:
            activate = True
            pre_data += self._trcd
            row_state = "miss"
        else:
            activate = True
            pre_data += self._trp + self._trcd
            row_state = "conflict"
        # Branching instead of max() chains: one plan per queued request
        # per scheduling pass.
        start = 0
        while True:
            bank = run.bank
            gate = bank.free_at
            if start < gate:
                start = gate
            if activate:
                act = bank.last_act_at
                gate = act + self._trc
                if start < gate:
                    start = gate
                if bank.open_row is not None:
                    # Conflicting row must satisfy tRAS before its precharge.
                    gate = act + self._tras
                    if start < gate:
                        start = gate
            chip = run.hi
            if chip >= end:
                break
            # The group spans several runs: every chip's bank gates it.
            run = runs[base + chip]
        bus = coord.rank * chips + first
        if width == 1:
            bus = self._chip_free_at[bus] - pre_data
        else:
            bus = max(self._chip_free_at[bus:bus + width]) - pre_data
        if bus > start:
            start = bus
        return start, pre_data, activate, row_state

    def commit_access(
        self,
        coord: DramCoord,
        start: int,
        pre_data: int,
        transfer: int,
        activate: bool,
        is_write: bool,
    ) -> int:
        """Apply a planned access that starts at ``start`` to every chip of
        its group; returns the cycle the last data beat completes."""
        width = coord.chips_per_group
        first = coord.chip_group * width
        end = first + width
        chips = self._chips_per_rank
        base = (coord.rank * self._banks_per_rank + coord.bank) * chips
        runs = self._runs
        run = runs[base + first]
        if run.lo != first or run.hi != end:
            self._split(base, first)
            self._split(base, end)
        timing = self.timing
        row = coord.row
        chip = first
        while chip < end:
            run = runs[base + chip]
            chip = run.hi
            bank = run.bank
            covered = chip - run.lo
            if activate:
                self._activations += covered
                if bank.open_row is not None:
                    self._row_conflicts += covered
            else:
                self._row_hits += covered
            bank.commit(start, row, pre_data, transfer, activate, timing,
                        is_write)
        if run.lo or chip < chips:
            # Not one run over the whole rank: neighbours may now be equal.
            self._merge(base, first, end)
        finish = start + pre_data + transfer
        bus = coord.rank * chips + first
        # The chip data bus is occupied only during the transfer window.
        self._chip_free_at[bus:bus + width] = [finish] * width
        return finish

    # -- run bookkeeping ----------------------------------------------------------

    def _mark_planned(self, base: int, first: int, end: int) -> _Run:
        """Flag chips ``[first, end)`` of a slot as planned; returns the run
        holding ``first``."""
        runs = self._runs
        chips = self._chips_per_rank
        if runs[base] is None:
            runs[base:base + chips] = [_Run(0, chips, Bank(), False)] * chips
        if not all(runs[base + chip].planned for chip in range(first, end)):
            self._split(base, first)
            self._split(base, end)
            for chip in range(first, end):
                runs[base + chip].planned = True
            self._merge(base, first, end)
        return runs[base + first]

    def _split(self, base: int, chip: int) -> None:
        """Make ``chip`` the first chip of a run (no-op at a run edge)."""
        if chip == self._chips_per_rank:
            return
        runs = self._runs
        run = runs[base + chip]
        if run.lo == chip:
            return
        bank = run.bank
        right = _Run(
            chip, run.hi,
            Bank(open_row=bank.open_row, free_at=bank.free_at,
                 last_act_at=bank.last_act_at),
            run.planned,
        )
        runs[base + chip:base + run.hi] = [right] * (run.hi - chip)
        run.hi = chip

    def _merge(self, base: int, first: int, end: int) -> None:
        """Merge equal neighbouring runs from the one before ``first``
        through the one starting at ``end``."""
        runs = self._runs
        chips = self._chips_per_rank
        left = runs[base + first - 1] if first else runs[base]
        while left.hi < chips and left.hi <= end:
            right = runs[base + left.hi]
            if left.same_state(right):
                runs[base + right.lo:base + right.hi] = (
                    [left] * (right.hi - right.lo)
                )
                left.hi = right.hi
            else:
                left = right

    # -- state readers ------------------------------------------------------------

    def chip_bank_state(
        self, rank: int, chip: int, bank: int
    ) -> Tuple[Optional[int], int, int, bool]:
        """``(open_row, free_at, last_act_at, planned)`` of one chip's bank."""
        chips = self._chips_per_rank
        run = self._runs[(rank * self._banks_per_rank + bank) * chips + chip]
        if run is None:
            fresh = Bank()
            return fresh.open_row, fresh.free_at, fresh.last_act_at, False
        state = run.bank
        return state.open_row, state.free_at, state.last_act_at, run.planned

    def chip_free_at(self, rank: int, chip: int) -> int:
        return self._chip_free_at[rank * self._chips_per_rank + chip]

    def apply_refresh(self, busy_until: int) -> None:
        """Block every planned bank and every chip bus until ``busy_until``
        (REF for all ranks) and close those banks' rows.

        Chips no plan has covered yet keep their fresh state.
        """
        runs = self._runs
        chips = self._chips_per_rank
        for base in range(0, len(runs), chips):
            if runs[base] is None:
                continue
            left = None
            chip = 0
            while chip < chips:
                run = runs[base + chip]
                chip = run.hi
                if run.planned:
                    bank = run.bank
                    if bank.free_at < busy_until:
                        bank.free_at = busy_until
                    # REF implicitly precharges every row.
                    bank.open_row = None
                if left is not None and left.same_state(run):
                    runs[base + run.lo:base + chip] = [left] * (chip - run.lo)
                    left.hi = chip
                else:
                    left = run
        free = self._chip_free_at
        for index, at in enumerate(free):
            if at < busy_until:
                free[index] = busy_until

    def validate_group(self, chips_per_group: int) -> None:
        """Reject fine-grained access on DIMMs that cannot do it."""
        if chips_per_group < self.geometry.chips_per_rank and not self.kind.fine_grained:
            raise ValueError(
                f"{self.path}: {self.kind.value} DIMMs only support lockstep "
                f"rank access, got group of {chips_per_group} chips"
            )

    # -- aggregate statistics ---------------------------------------------------

    @property
    def total_activations(self) -> int:
        return self._activations

    @property
    def total_row_hits(self) -> int:
        return self._row_hits

    @property
    def total_row_conflicts(self) -> int:
        return self._row_conflicts
