"""Per-bank row-buffer state machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dram.timing import DramTiming


@dataclass(slots=True)
class Bank:
    """State of one DRAM bank (per rank, per chip).

    With lockstep chips a whole rank's same-index banks move together; with
    per-chip chip selects (CXLG-DIMMs) every chip keeps an independent open
    row in the same bank index — that independence is where the fine-grained
    parallelism comes from.

    Timing is split between the bank (command sequencing: ACT/PRE/CAS)
    and the chip data bus (transfer windows), so column accesses to
    *different* banks of one chip pipeline behind each other at burst
    granularity, as in real DDR4.  :meth:`repro.dram.dimm.Dimm.plan_access`
    reads this record to gate an access; :meth:`commit` applies it.
    """

    open_row: Optional[int] = None
    #: Cycle at which the bank can accept the next access sequence.
    free_at: int = 0
    #: Start cycle of the most recent ACT (enforces tRC).
    last_act_at: int = field(default=-(10 ** 9))

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
