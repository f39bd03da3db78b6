"""Tests for DDR4 timing parameters and the bank state machine."""

import pytest

from repro.dram import Dimm, DimmKind, DramCoord
from repro.dram.bank import Bank
from repro.dram.timing import DramTiming, DimmGeometry
from repro.sim import Engine
from repro.sim.component import Component

T = DramTiming()


class TestTiming:
    def test_table1_values(self):
        assert (T.tcas, T.trcd, T.trp) == (22, 22, 22)
        assert T.tck_ns == 1.25

    def test_derived(self):
        assert T.trc == T.tras + T.trp
        assert T.row_hit_read == T.tcas + T.tbl
        assert T.row_closed_read == T.trcd + T.tcas + T.tbl
        assert T.row_miss_read == T.trp + T.trcd + T.tcas + T.tbl

    def test_conversions(self):
        assert T.cycles_to_ns(4) == 5.0
        assert T.ns_to_cycles(5.0) == 4
        assert T.ns_to_cycles(5.1) == 5  # ceiling
        assert T.ns_to_cycles(0) == 0

    def test_cycle_timings_must_be_ints(self):
        # DRAM completions are pushed onto the scheduler unchecked, so a
        # fractional (or float) timing must fail at construction.
        with pytest.raises(ValueError, match="tcas must be an int"):
            DramTiming(tcas=22.5)
        with pytest.raises(ValueError, match="trefi must be an int"):
            DramTiming(trefi=6240.0)
        assert DramTiming(tck_ns=1.0).tck_ns == 1.0


def _dimm():
    engine = Engine()
    return Dimm(engine, "dimm", Component(engine, "sys"), DimmKind.CXLG)


def _coord(row, chips=16, group=0):
    return DramCoord(rank=0, bank=0, row=row, column=0, chip_group=group,
                     chips_per_group=chips)


def _access(dimm, row, start, is_write=False, chips=16, group=0):
    """Plan and commit one burst at ``start`` (or the plan's start, if
    later); returns the plan."""
    coord = _coord(row, chips, group)
    plan = dimm.plan_access(coord, is_write)
    dimm.commit_access(coord, max(start, plan[0]), plan[1], T.tbl, plan[2],
                       is_write)
    return plan


class TestBankClassify:
    """``Dimm.plan_access`` classifies an access against the head chip's
    bank: hit, miss or conflict, with the command cycles before data."""

    def _plan(self, open_row, row, is_write):
        dimm = _dimm()
        if open_row is not None:
            _access(dimm, open_row, 0)
        _, pre, act, state = dimm.plan_access(_coord(row), is_write)
        return pre, act, state

    def test_closed_bank_needs_activate(self):
        assert self._plan(None, 5, False) == (T.trcd + T.tcas, True, "miss")
        assert self._plan(None, 5, True) == (T.trcd + T.twl, True, "miss")

    def test_row_hit(self):
        assert self._plan(5, 5, False) == (T.tcas, False, "hit")
        assert self._plan(5, 5, True) == (T.twl, False, "hit")

    def test_row_conflict(self):
        assert self._plan(4, 5, False) == (T.trp + T.trcd + T.tcas, True,
                                           "conflict")
        assert self._plan(4, 5, True) == (T.trp + T.trcd + T.twl, True,
                                          "conflict")

    def test_write_uses_write_latency(self):
        for open_row in (None, 5, 4):
            read = self._plan(open_row, 5, False)[0]
            write = self._plan(open_row, 5, True)[0]
            assert read - write == T.tcas - T.twl

    def test_head_chip_classifies_a_split_group(self):
        # Chip 1 has row 5 open; a two-chip group led by chip 0 (closed)
        # is a miss and activates, whatever chip 1 holds.
        dimm = _dimm()
        _access(dimm, 5, 0, chips=1, group=1)
        _, pre, act, state = dimm.plan_access(_coord(5, chips=2), False)
        assert (pre, act, state) == (T.trcd + T.tcas, True, "miss")


class TestPlanGates:
    """``Dimm.plan_access``'s start gates beyond a single bank's."""

    def test_miss_after_refresh_honours_trc(self):
        dimm = _dimm()
        _access(dimm, 1, 0)
        dimm.apply_refresh(10)  # closes the row; the bank frees at 48
        start, _, act, state = dimm.plan_access(_coord(1), False)
        assert (act, state) == (True, "miss")
        assert dimm.chip_bank_state(0, 0, 0)[1] < T.trc
        assert start == T.trc

    def test_hit_ignores_the_act_gates(self):
        dimm = _dimm()
        _access(dimm, 1, 0)
        start, _, act, _ = dimm.plan_access(_coord(1), False)
        assert not act
        assert start < T.trc

    def test_every_run_of_a_group_gates_its_start(self):
        # Chip 3 alone is busy until late; a lockstep access waits for it.
        dimm = _dimm()
        _access(dimm, 1, 0)
        _access(dimm, 1, 500, chips=1, group=3)
        busy = dimm.chip_bank_state(0, 3, 0)[1]
        assert dimm.chip_bank_state(0, 0, 0)[1] < busy
        start, _, act, _ = dimm.plan_access(_coord(1), False)
        assert not act
        assert start == busy


class TestBankCommit:
    def test_commit_opens_row_and_counts(self):
        bank = Bank()
        pre = T.trcd + T.tcas  # a miss activates
        finish = bank.commit(0, 7, pre, 4, True, T, False)
        assert bank.open_row == 7
        assert bank.last_act_at == 0
        assert finish == pre + 4
        assert bank.free_at == finish

    def test_hit_then_conflict_counters(self):
        # Per-bank hit/miss/conflict totals live on the Dimm; the bank's
        # own state shows each case: the ACT time and the open row.
        dimm = _dimm()
        act_at = {}
        for row, case in ((1, "miss"), (1, "hit"), (2, "conflict")):
            start, pre, act, state = dimm.plan_access(_coord(row), False)
            assert state == case
            finish = dimm.commit_access(_coord(row), start, pre, 4, act,
                                        False)
            open_row, free_at, last_act, _ = dimm.chip_bank_state(0, 0, 0)
            assert open_row == row
            assert free_at == finish == start + pre + 4
            act_at[case] = (start, last_act)
        miss_start, miss_act = act_at["miss"]
        assert miss_act == miss_start
        hit_act = act_at["hit"][1]
        assert hit_act == miss_act  # a row hit issues no ACT
        conflict_start, conflict_act = act_at["conflict"]
        assert conflict_act == conflict_start + T.trp  # PRE, then ACT
        assert (dimm.total_activations, dimm.total_row_hits,
                dimm.total_row_conflicts) == (32, 16, 16)

    def test_trc_enforced_between_activates(self):
        dimm = _dimm()
        _access(dimm, 1, 0)
        first_act = dimm.chip_bank_state(0, 0, 0)[2]
        assert first_act == 0
        start, _, act, state = dimm.plan_access(_coord(2), False)
        assert (act, state) == (True, "conflict")
        # The open row must stay open tRAS before its precharge, and the
        # next ACT must follow the first by tRC (= tRAS + tRP, so it binds).
        assert start >= first_act + T.tras
        assert start == first_act + T.trc
        _access(dimm, 2, start)
        assert dimm.chip_bank_state(0, 0, 0)[2] == start + T.trp

    def test_write_recovery_extends_busy(self):
        bank = Bank()
        finish = bank.commit(0, 3, T.trcd + T.twl, 4, True, T, True)
        assert bank.free_at == finish + T.twr

    def test_earliest_start_respects_free_at(self):
        dimm = _dimm()
        _access(dimm, 1, 100)
        free_at = dimm.chip_bank_state(0, 0, 0)[1]
        assert free_at == 100 + T.trcd + T.tcas + T.tbl
        # A hit starts when the bank frees; its column command may issue
        # while the chip bus still carries the previous burst.
        assert dimm.plan_access(_coord(1), False)[0] == free_at
