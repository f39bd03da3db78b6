"""Per-bank row-buffer state machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dram.timing import DramTiming


@dataclass(slots=True)
class Bank:
    """State of one DRAM bank (per rank, per chip).

    With lockstep chips a whole rank's same-index banks move together; with
    per-chip chip selects (CXLG-DIMMs) every chip keeps an independent open
    row in the same bank index — that independence is where the fine-grained
    parallelism comes from.

    Timing is split between the bank (command sequencing: ACT/PRE/CAS,
    enforced here) and the chip data bus (transfer windows, enforced by the
    controller), so column accesses to *different* banks of one chip
    pipeline behind each other at burst granularity, as in real DDR4.
    """

    open_row: Optional[int] = None
    #: Cycle at which the bank can accept the next access sequence.
    free_at: int = 0
    #: Start cycle of the most recent ACT (enforces tRC).
    last_act_at: int = field(default=-(10 ** 9))

    def classify(self, row: int, timing: DramTiming, is_write: bool) -> Tuple[int, bool]:
        """Command-phase latency before data for an access to ``row``.

        Returns ``(pre_data_cycles, needs_activate)`` without mutating
        state; the controller uses it to plan bus occupancy.
        """
        column = timing.twl if is_write else timing.tcas
        if self.open_row == row:
            return column, False
        if self.open_row is None:
            return timing.trcd + column, True
        return timing.trp + timing.trcd + column, True

    def earliest_start(self, now: int, needs_activate: bool, timing: DramTiming) -> int:
        """Earliest cycle the access's command sequence may begin."""
        # Branching instead of max() chains: called per bank per planning
        # pass, and builtins.max on two ints is slower than a compare.
        start = self.free_at
        if start < now:
            start = now
        if needs_activate:
            act = self.last_act_at
            gate = act + timing.trc
            if start < gate:
                start = gate
            if self.open_row is not None:
                # Conflicting row must satisfy tRAS before its precharge.
                gate = act + timing.tras
                if start < gate:
                    start = gate
        return start

    def commit(
        self,
        start: int,
        row: int,
        pre_data_cycles: int,
        transfer_cycles: int,
        needs_activate: bool,
        timing: DramTiming,
        is_write: bool,
    ) -> int:
        """Apply the access; returns the cycle the last data beat completes.

        The bank is then busy until the data transfer ends (+tWR for
        writes); other banks of the same chip may interleave freely.
        """
        finish = start + pre_data_cycles + transfer_cycles
        if needs_activate:
            self.last_act_at = start if self.open_row is None else start + timing.trp
            self.open_row = row
        self.free_at = finish + (timing.twr if is_write else 0)
        return finish
