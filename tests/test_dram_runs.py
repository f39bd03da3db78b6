"""Differential test: the DIMM's lockstep-run bank state against a per-chip
reference.

:class:`~repro.dram.dimm.Dimm` keeps one :class:`Bank` per run of chips
whose timing state is identical.  The reference below keeps one ``Bank``
per (rank, chip, bank) and plans/commits a group chip by chip — the
straightforward model the runs must reproduce exactly, including two
quirks the published results depend on: a chip's bank comes into being
the first time a *plan* covers it, and refresh clamps only banks that
exist by then.
"""

from hypothesis import given, settings, strategies as st

from repro.dram import Dimm, DimmGeometry, DimmKind, DramCoord, DramTiming
from repro.dram.bank import Bank
from repro.sim import Engine
from repro.sim.component import Component

GEO = DimmGeometry()
TIMING = DramTiming()
#: Few ranks, banks and rows, so random accesses collide on state.
RANKS, BANKS, ROWS = 2, 3, 3


class PerChipDimm:
    """Per-chip reference model of the DIMM's bank and bus timing."""

    def __init__(self) -> None:
        self.banks = {}
        self.free = [0] * (GEO.ranks * GEO.chips_per_rank)
        # Per-chip totals, counted at commit from ``activate`` and each
        # chip-bank's open row before the access.
        self.activations = self.row_hits = self.row_conflicts = 0

    def _group(self, coord):
        first = coord.chip_group * coord.chips_per_group
        chips = range(first, first + coord.chips_per_group)
        return [self.banks.setdefault((coord.rank, chip, coord.bank), Bank())
                for chip in chips], coord.rank * GEO.chips_per_rank + first

    def plan(self, coord, is_write):
        banks, bus = self._group(coord)
        head = banks[0]
        pre_data, activate = head.classify(coord.row, TIMING, is_write)
        start = 0
        for offset, bank in enumerate(banks):
            start = max(start, bank.earliest_start(start, activate, TIMING),
                        self.free[bus + offset] - pre_data)
        if not activate:
            row_state = "hit"
        elif head.open_row is None:
            row_state = "miss"
        else:
            row_state = "conflict"
        return start, pre_data, activate, row_state

    def commit(self, coord, start, pre_data, transfer, activate, is_write):
        banks, bus = self._group(coord)
        for bank in banks:
            if not activate:
                self.row_hits += 1
            else:
                self.activations += 1
                if bank.open_row is not None:
                    self.row_conflicts += 1
            finish = bank.commit(start, coord.row, pre_data, transfer,
                                 activate, TIMING, is_write)
        self.free[bus:bus + len(banks)] = [finish] * len(banks)
        return finish

    def refresh(self, busy_until):
        for bank in self.banks.values():
            bank.free_at = max(bank.free_at, busy_until)
            bank.open_row = None
        self.free = [max(at, busy_until) for at in self.free]

    def state(self, rank, chip, bank):
        entry = self.banks.get((rank, chip, bank))
        planned = entry is not None
        entry = entry or Bank()
        return entry.open_row, entry.free_at, entry.last_act_at, planned

    def totals(self):
        return self.activations, self.row_hits, self.row_conflicts


def _coord(rank, bank, row, width, group):
    return DramCoord(rank=rank, bank=bank, row=row, column=0,
                     chip_group=group % (GEO.chips_per_rank // width),
                     chips_per_group=width)


accesses = st.tuples(
    st.just("access"),
    st.integers(0, RANKS - 1),
    st.integers(0, BANKS - 1),
    st.integers(0, ROWS - 1),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.integers(0, 15),                    # chip group (mod groups)
    st.booleans(),                         # write?
    st.integers(1, 2),                     # bursts
    st.booleans(),                         # commit (else plan only)
    st.integers(0, 120),                   # cycles before this step
)
refreshes = st.tuples(st.just("refresh"), st.integers(0, 2 * TIMING.trefi))


@settings(max_examples=150)
@given(st.lists(st.one_of(accesses, accesses, accesses, refreshes),
                min_size=1, max_size=60))
def test_runs_match_per_chip_reference(steps):
    engine = Engine()
    dimm = Dimm(engine, "dimm", Component(engine, "sys"), DimmKind.CXLG)
    reference = PerChipDimm()
    now = 0
    for step in steps:
        if step[0] == "refresh":
            now += step[1]
            dimm.apply_refresh(now + TIMING.trfc)
            reference.refresh(now + TIMING.trfc)
            continue
        _, rank, bank, row, width, group, is_write, bursts, commit, wait = step
        now += wait
        coord = _coord(rank, bank, row, width, group)
        plan = dimm.plan_access(coord, is_write)
        assert plan == reference.plan(coord, is_write)
        if commit:
            start, pre_data, activate, _ = plan
            start = max(now, start)
            transfer = bursts * TIMING.tbl
            assert (dimm.commit_access(coord, start, pre_data, transfer,
                                       activate, is_write)
                    == reference.commit(coord, start, pre_data, transfer,
                                        activate, is_write))
    for rank in range(GEO.ranks):
        for chip in range(GEO.chips_per_rank):
            assert dimm.chip_free_at(rank, chip) == reference.free[
                rank * GEO.chips_per_rank + chip]
            for bank in range(GEO.banks):
                assert (dimm.chip_bank_state(rank, chip, bank)
                        == reference.state(rank, chip, bank))
    assert (dimm.total_activations, dimm.total_row_hits,
            dimm.total_row_conflicts) == reference.totals()


def test_lockstep_traffic_stays_one_run():
    """Full-rank accesses never split a bank's chips, and a narrow access
    splits them only until the chips' states agree again."""
    engine = Engine()
    dimm = Dimm(engine, "dimm", Component(engine, "sys"), DimmKind.CXLG)

    def access(width, group, start):
        coord = _coord(0, 0, 0, width, group)
        _, pre_data, activate, _ = dimm.plan_access(coord, False)
        return dimm.commit_access(coord, start, pre_data, TIMING.tbl,
                                  activate, False)

    def runs():
        return len({id(dimm._runs[chip]) for chip in range(GEO.chips_per_rank)})

    access(16, 0, 0)
    assert runs() == 1
    finish = access(1, 3, 100)
    assert runs() == 3  # chips 0-2, chip 3, chips 4-15
    # A later full-rank access brings every chip to one state again.
    access(16, 0, finish + 100)
    assert runs() == 1
