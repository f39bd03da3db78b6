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
from repro.core.config import Algorithm, OptimizationFlags
from repro.core.registry import build_system
from repro.cxl.topology import MemoryPool
from repro.dram import DimmKind
from repro.experiments.runner import ExperimentScale
from repro.obs import TraceRecorder
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


class TestRoundTripLookup:
    """``Fabric.round_trip`` accounts exactly like two ``route`` calls."""

    def _pool(self):
        engine, root = make()
        pool = MemoryPool(engine, "pool", root, CommParams())
        pool.fabric.add_host()
        for s in range(2):
            pool.fabric.add_switch(f"sw{s}")
            for d in range(2):
                pool.add_dimm(f"d{s}.{d}", f"sw{s}", DimmKind.CXLG)
        return pool

    @staticmethod
    def _counters(fabric):
        # Through ``as_dict``, which pulls the host's and switches' tallies
        # (their bus links' scopes nest in, idle on both sides).
        return (fabric.host.stats.as_dict(),
                {name: switch.stats.as_dict()
                 for name, switch in fabric.switches.items()})

    def test_every_node_pair(self):
        one, two = self._pool().fabric, self._pool().fabric
        nodes = ["host", "sw0", "sw1", "d0.0", "d0.1", "d1.0", "d1.1"]
        for src in nodes:
            for dst in nodes:
                for force_host in (False, True):
                    there, back = one.round_trip(src, dst, force_host)
                    assert [c.path for c in there.hops] == [
                        c.path for c in two.route(src, dst, force_host).hops]
                    assert [c.path for c in back.hops] == [
                        c.path for c in two.route(dst, src, force_host).hops]
                    assert (there.src, there.dst, back.src, back.dst) == (
                        src, dst, dst, src)
                    assert self._counters(one) == self._counters(two)
        host, switches = self._counters(one)
        assert host["detour_messages"] > 0
        assert all(s["in_switch_turnarounds"] > 0 for s in switches.values())


#: Crossings of one quick BEACON-D FM-seeding point on Pt per ladder step,
#: ``(host_detour, turnaround)`` trace instants, as two ``route`` calls per
#: round trip emitted them.  Before device bias every remote access
#: detours through the host; with it, accesses turn around in the switch.
LADDER_CROSSINGS = {
    "+data packing": (2764, 0),
    "+memory access opt": (1582, 1182),
}


@pytest.mark.parametrize("label", sorted(LADDER_CROSSINGS))
def test_traced_and_untraced_points_count_the_same_crossings(label,
                                                              monkeypatch):
    """Untraced round trips bump the crossing counters inline; traced ones
    go through ``route``, which also emits one instant per crossing."""
    scale = ExperimentScale.quick()
    algorithm = Algorithm.FM_SEEDING
    spec = next(s for s in scale.seeding_datasets() if s.name == "Pt")
    workload = scale.seeding_workload(spec)
    flags = dict(OptimizationFlags.cumulative_steps("beacon-d", algorithm))

    def run(tracer):
        monkeypatch.setattr(Engine, "default_tracer", tracer)
        system = build_system("beacon-d", scale.config_for(algorithm),
                              flags[label], label="crossings")
        system.run_algorithm(algorithm, workload)
        fabric = system.pool.fabric
        return (fabric.host.stats.get("detour_messages"),
                sum(switch.stats.get("in_switch_turnarounds")
                    for switch in fabric.switches.values()))

    recorder = TraceRecorder(categories={"cxl"}, limit=0)
    instants = {"host_detour": 0, "turnaround": 0}

    def count(event):
        if event["name"] in instants:
            instants[event["name"]] += 1

    recorder.subscribe(count)
    untraced = run(None)
    traced = run(recorder)
    assert untraced == traced
    crossings = (instants["host_detour"], instants["turnaround"])
    assert crossings == traced
    assert crossings == LADDER_CROSSINGS[label]
