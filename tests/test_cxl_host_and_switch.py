"""Unit tests for the host and switch structural models."""

import pytest

from repro.cxl import (
    CommParams,
    CxlSwitch,
    Host,
    LinkParams,
    Message,
    MessageKind,
    PackedChannel,
)
from repro.cxl.topology import MemoryPool
from repro.dram import DimmKind
from repro.sim import Engine
from repro.sim.component import Component


def make(engine=None):
    engine = engine or Engine()
    root = Component(engine, "sys")
    return engine, root


class TestHost:
    def test_detour_accounting(self):
        engine, root = make()
        host = Host(engine, "host", root, LinkParams(64, 10))
        host.record_detour()
        host.record_detour()
        assert host.stats.get("detour_messages") == 2

    def test_bus_is_a_link(self):
        engine, root = make()
        host = Host(engine, "host", root, LinkParams(64, 10))
        chan = PackedChannel(engine, "chan", root, host.bus, packing=False)
        arrivals = []
        chan.send(Message(MessageKind.MEM_RESPONSE, payload_bytes=638,
                          destination="host",
                          on_delivered=lambda: arrivals.append(engine.now)))
        engine.run()
        assert arrivals == [20]  # 640 B: 10 serialize + 10 latency


class TestCxlSwitch:
    def test_vcs_binding(self):
        engine, root = make()
        switch = CxlSwitch(engine, "sw0", root, LinkParams(128, 4))
        assert switch.attach_dimm("d0") == 0
        assert switch.attach_dimm("d1") == 1
        assert switch.owns("d0") and switch.owns("d1")
        assert not switch.owns("d2")
        assert switch.dimm_nodes == ["d0", "d1"]

    def test_turnaround_counter(self):
        engine, root = make()
        switch = CxlSwitch(engine, "sw0", root, LinkParams(128, 4))
        switch.record_turnaround()
        assert switch.stats.get("in_switch_turnarounds") == 1


class TestPoolTopologyAccounting:
    def _pool(self, device_bias):
        engine, root = make()
        pool = MemoryPool(engine, "pool", root, CommParams(device_bias=device_bias))
        pool.fabric.add_host()
        pool.fabric.add_switch("sw0")
        pool.add_dimm("d0.0", "sw0", DimmKind.CXLG)
        pool.add_dimm("d0.1", "sw0", DimmKind.UNMODIFIED_CXL)
        return engine, pool

    def test_owner_switch(self):
        _engine, pool = self._pool(True)
        assert pool.owner_switch(0) == "sw0"
        assert pool.owner_switch(1) == "sw0"

    def test_detours_counted_without_bias(self):
        _engine, pool = self._pool(False)
        pool.fabric.route("d0.0", "d0.1", force_host=True)
        assert pool.fabric.host.stats.get("detour_messages") == 1
        assert pool.fabric.switches["sw0"].stats.get("in_switch_turnarounds", 0) == 0

    def test_turnarounds_counted_with_bias(self):
        _engine, pool = self._pool(True)
        pool.fabric.route("d0.0", "d0.1")
        assert pool.fabric.switches["sw0"].stats.get("in_switch_turnarounds") == 1
        assert pool.fabric.host.stats.get("detour_messages", 0) == 0

    def test_vcs_table_filled_by_fabric(self):
        _engine, pool = self._pool(True)
        switch = pool.fabric.switches["sw0"]
        assert switch.owns("d0.0") and switch.owns("d0.1")

    def test_comm_energy_rollup(self):
        engine, pool = self._pool(True)
        from repro.dram import ChipInterleaveMapping, DimmGeometry, MemoryRequest

        req = MemoryRequest(addr=0, size=64)
        req.coord = ChipInterleaveMapping(DimmGeometry(), 16).map(0)
        req.dimm_index = 1
        pool.access(req, "d0.0")
        engine.run()
        assert pool.fabric.comm_energy_pj() > 0
