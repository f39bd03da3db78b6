"""Tests for DDR4 timing parameters and the bank state machine."""

import pytest

from repro.dram.bank import Bank
from repro.dram.timing import DramTiming, DimmGeometry

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


class TestBankClassify:
    def test_closed_bank_needs_activate(self):
        bank = Bank()
        pre, act = bank.classify(5, T, is_write=False)
        assert act
        assert pre == T.trcd + T.tcas

    def test_row_hit(self):
        bank = Bank(open_row=5)
        pre, act = bank.classify(5, T, is_write=False)
        assert not act
        assert pre == T.tcas

    def test_row_conflict(self):
        bank = Bank(open_row=4)
        pre, act = bank.classify(5, T, is_write=False)
        assert act
        assert pre == T.trp + T.trcd + T.tcas

    def test_write_uses_write_latency(self):
        bank = Bank(open_row=5)
        pre, _ = bank.classify(5, T, is_write=True)
        assert pre == T.twl


class TestBankCommit:
    def test_commit_opens_row_and_counts(self):
        bank = Bank()
        pre, act = bank.classify(7, T, False)
        assert (pre, act) == (T.trcd + T.tcas, True)  # a miss activates
        finish = bank.commit(0, 7, pre, 4, act, T, False)
        assert bank.open_row == 7
        assert bank.last_act_at == 0
        assert finish == pre + 4
        assert bank.free_at == finish

    def test_hit_then_conflict_counters(self):
        # Per-bank hit/miss/conflict totals live on the Dimm; the bank's
        # own state shows each case: classify's (pre, act), the ACT time
        # and the open row.
        bank = Bank()
        expected = {
            "miss": (T.trcd + T.tcas, True),
            "hit": (T.tcas, False),
            "conflict": (T.trp + T.trcd + T.tcas, True),
        }
        act_at = {}
        for row, case in ((1, "miss"), (1, "hit"), (2, "conflict")):
            pre, act = bank.classify(row, T, False)
            assert (pre, act) == expected[case]
            start = bank.earliest_start(bank.free_at, act, T)
            finish = bank.commit(start, row, pre, 4, act, T, False)
            assert bank.open_row == row
            assert bank.free_at == finish == start + pre + 4
            act_at[case] = (start, bank.last_act_at)
        miss_start, miss_act = act_at["miss"]
        assert miss_act == miss_start
        hit_act = act_at["hit"][1]
        assert hit_act == miss_act  # a row hit issues no ACT
        conflict_start, conflict_act = act_at["conflict"]
        assert conflict_act == conflict_start + T.trp  # PRE, then ACT

    def test_trc_enforced_between_activates(self):
        bank = Bank()
        pre, act = bank.classify(1, T, False)
        bank.commit(0, 1, pre, 4, act, T, False)
        first_act = bank.last_act_at
        pre2, act2 = bank.classify(2, T, False)
        start = bank.earliest_start(0, act2, T)
        assert start >= first_act + T.tras  # conflicting row honors tRAS
        bank.commit(start, 2, pre2, 4, act2, T, False)
        assert bank.last_act_at >= first_act + T.tras

    def test_write_recovery_extends_busy(self):
        bank = Bank()
        pre, act = bank.classify(3, T, True)
        finish = bank.commit(0, 3, pre, 4, act, T, True)
        assert bank.free_at == finish + T.twr

    def test_earliest_start_respects_free_at(self):
        bank = Bank(open_row=1, free_at=100)
        pre, act = bank.classify(1, T, False)
        assert bank.earliest_start(50, act, T) == 100
        assert bank.earliest_start(150, act, T) == 150
