"""Tests for the DDR4 refresh engine."""

import numpy as np
import pytest

from repro.dram import (Dimm, DimmController, DimmGeometry, DimmKind,
                        DramCoord, DramTiming, MemoryRequest,
                        RankInterleaveMapping)
from repro.sim import Engine
from repro.sim.component import Component

GEO = DimmGeometry()


def make_setup():
    engine = Engine()
    root = Component(engine, "sys")
    dimm = Dimm(engine, "dimm", root, DimmKind.CXLG)
    ctrl = DimmController(engine, "mc", root, dimm)
    return engine, dimm, ctrl


def drive(ctrl, n, seed=0, spacing=0):
    mapping = RankInterleaveMapping(GEO)
    done = []
    rng = np.random.default_rng(seed)
    for i in range(n):
        addr = int(rng.integers(0, 1 << 22)) // 64 * 64
        req = MemoryRequest(addr=addr, size=64,
                            on_complete=lambda r: done.append(r))
        req.coord = mapping.map(addr)
        ctrl.submit_when_possible(req)
    return done


def test_refresh_fires_during_long_activity():
    engine, dimm, ctrl = make_setup()
    # Keep the DIMM busy past several tREFI windows by trickling requests.
    mapping = RankInterleaveMapping(GEO)
    done = []

    def trickle(i=0):
        if i >= 60:
            return
        addr = (i * 977) % (1 << 20) // 64 * 64
        req = MemoryRequest(addr=addr, size=64,
                            on_complete=lambda r: done.append(r))
        req.coord = mapping.map(addr)
        ctrl.submit_when_possible(req)
        engine.schedule(400, lambda: trickle(i + 1))

    trickle()
    engine.run()
    assert len(done) == 60
    assert dimm.refresh.refreshes >= 2
    assert dimm.stats.get("energy_refresh_nj") > 0


def test_refresh_goes_dormant_so_simulation_quiesces():
    engine, dimm, ctrl = make_setup()
    done = drive(ctrl, 20)
    engine.run()  # must terminate despite the periodic refresh engine
    assert len(done) == 20
    # After quiescence, the engine queue is empty.
    assert engine.pending_events == 0


def test_refresh_rearms_after_dormancy():
    engine, dimm, ctrl = make_setup()
    drive(ctrl, 10, seed=1)
    engine.run()
    first_round = dimm.refresh.refreshes
    # New burst of traffic far in the future: refresh must re-arm.
    engine.schedule(0, lambda: None)
    mapping = RankInterleaveMapping(GEO)
    done = []

    def trickle(i=0):
        if i >= 40:
            return
        req = MemoryRequest(addr=(i * 4096) % (1 << 20), size=64,
                            on_complete=lambda r: done.append(r))
        req.coord = mapping.map(req.addr)
        ctrl.submit_when_possible(req)
        engine.schedule(500, lambda: trickle(i + 1))

    trickle()
    engine.run()
    assert len(done) == 40
    assert dimm.refresh.refreshes > first_round


def test_refresh_closes_rows():
    engine, dimm, ctrl = make_setup()
    mapping = RankInterleaveMapping(GEO)
    done = []

    def probe(addr):
        req = MemoryRequest(addr=addr, size=64,
                            on_complete=lambda r: done.append(r))
        req.coord = mapping.map(addr)
        ctrl.submit_when_possible(req)

    probe(0)
    # Re-touch the same row after a refresh interval: the row was closed by
    # REF, so the second access needs a fresh activate.
    engine.schedule(dimm.timing.trefi + dimm.timing.trfc + 100, lambda: probe(0))
    engine.run()
    assert len(done) == 2
    assert dimm.total_activations >= 2 * GEO.chips_per_rank


def _lockstep_start_after_refresh(bank):
    """Command-phase start of a 16-chip read to ``bank`` submitted 10
    cycles into the first REF, after a read to bank 0 armed refresh."""
    engine, dimm, ctrl = make_setup()
    timing = dimm.timing
    issued = []

    def probe(bank_index):
        req = MemoryRequest(addr=0, size=64)
        req.coord = DramCoord(rank=0, bank=bank_index, row=0, column=0,
                              chip_group=0, chips_per_group=16)
        ctrl.submit_when_possible(req)
        issued.append(req)

    probe(0)
    engine.schedule(timing.trefi + 10, lambda: probe(bank))
    engine.run()
    # Both reads are row misses (REF closed bank 0's row): ACT + CAS + burst.
    return issued[-1].completed_at - timing.trcd - timing.tcas - timing.tbl


def test_refresh_blocks_a_bank_planned_before_it():
    timing = DramTiming()
    assert _lockstep_start_after_refresh(0) == timing.trefi + timing.trfc


@pytest.mark.xfail(strict=True, reason=(
    "a bank no plan has covered yet ignores a refresh in progress; fixing "
    "it changes published results"))
def test_refresh_blocks_a_bank_first_planned_during_it():
    timing = DramTiming()
    assert _lockstep_start_after_refresh(5) == timing.trefi + timing.trfc
