"""Tests for the CXL fabric: flits, links, packer, routing, access path."""

import pytest

from repro.cxl import (
    CommParams,
    FLIT_BYTES,
    IDEAL_LINK_PARAMS,
    Link,
    LinkParams,
    Message,
    MessageKind,
    PackedChannel,
)
from repro.cxl.topology import MemoryPool
from repro.dram import ChipInterleaveMapping, DimmGeometry, DimmKind, MemoryRequest
from repro.dram.request import AccessKind
from repro.obs import TraceRecorder
from repro.sim import Engine
from repro.sim.component import Component

GEO = DimmGeometry()


class TestMessageWireMath:
    def test_small_payload_rounds_to_flit(self):
        m = Message(MessageKind.MEM_RESPONSE, payload_bytes=32, destination="d")
        assert m.unpacked_wire_bytes == FLIT_BYTES
        assert m.packed_wire_bytes == 34  # 32 + 2 B packed header

    def test_large_payload_multiple_flits(self):
        m = Message(MessageKind.MEM_RESPONSE, payload_bytes=200, destination="d")
        assert m.unpacked_wire_bytes == 256

    def test_request_header_cost(self):
        m = Message(MessageKind.MEM_REQUEST, payload_bytes=8, destination="d")
        assert m.packed_wire_bytes == 24

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            Message(MessageKind.MEM_REQUEST, payload_bytes=0, destination="d")


def _wire(engine, chan, wire_bytes, on_delivered):
    """Put exactly ``wire_bytes`` (a multiple of a flit) on ``chan``'s link
    as one unpacked message."""
    assert wire_bytes % FLIT_BYTES == 0
    chan.send(Message(MessageKind.MEM_RESPONSE, payload_bytes=wire_bytes - 2,
                      destination="d", on_delivered=on_delivered))


class TestLink:
    """The wire a channel serializes onto: every transfer goes through
    ``PackedChannel.send``."""

    def _link(self, params):
        engine = Engine()
        root = Component(engine, "sys")
        link = Link(engine, "l", root, params)
        return engine, link, PackedChannel(engine, "c", root, link,
                                           packing=False)

    def test_serialization_and_latency(self):
        engine, link, chan = self._link(
            LinkParams(bytes_per_cycle=8, latency_cycles=10))
        arrivals = []
        _wire(engine, chan, 64, lambda: arrivals.append(engine.now))
        _wire(engine, chan, 64, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [18, 26]  # 8 cycles serialize each, shared queue

    def test_ideal_link_is_instant(self):
        engine, link, chan = self._link(IDEAL_LINK_PARAMS)
        arrivals = []
        for _ in range(5):
            _wire(engine, chan, 10_048, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [0] * 5

    def test_energy_accounting(self):
        engine, link, chan = self._link(LinkParams(4, 0, pj_per_byte=2.0))
        _wire(engine, chan, 128, lambda: None)
        engine.run()
        assert link.stats.get("energy_pj") == 256.0

    def test_utilization(self):
        engine, link, chan = self._link(
            LinkParams(bytes_per_cycle=1, latency_cycles=0))
        _wire(engine, chan, 64, lambda: None)
        engine.run()
        assert link.utilization(128) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(bytes_per_cycle=0, latency_cycles=1)
        with pytest.raises(ValueError):
            LinkParams(bytes_per_cycle=1, latency_cycles=-1)
        # Arrivals are pushed onto the scheduler unchecked, so a latency
        # must be a whole number of cycles up front.
        with pytest.raises(ValueError, match="latency_cycles must be an int"):
            LinkParams(bytes_per_cycle=1, latency_cycles=2.5)

    def test_channels_sharing_a_link_share_its_wire(self):
        # A DDR multidrop bus: two channels, one link, one serialization
        # queue and one set of link counters.
        engine, link, first = self._link(
            LinkParams(bytes_per_cycle=8, latency_cycles=10))
        second = PackedChannel(engine, "c2", link.parent, link, packing=False)
        arrivals = []
        _wire(engine, first, 64, lambda: arrivals.append(engine.now))
        _wire(engine, second, 64, lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [18, 26]
        assert link.stats.get("messages") == 2


class TestPackedChannel:
    def _channel(self, packing, bpc=8):
        engine = Engine()
        root = Component(engine, "sys")
        link = Link(engine, "l", root, LinkParams(bytes_per_cycle=bpc,
                                                  latency_cycles=2))
        chan = PackedChannel(engine, "c", root, link, packing=packing)
        return engine, link, chan

    def _msg(self, size, on_delivered):
        return Message(MessageKind.MEM_RESPONSE, payload_bytes=size,
                       destination="d", on_delivered=on_delivered)

    def test_unpacked_costs_whole_flits(self):
        engine, link, chan = self._channel(packing=False)
        got = []
        for i in range(4):
            chan.send(self._msg(8, lambda i=i: got.append(i)))
        engine.run()
        assert got == [0, 1, 2, 3]
        assert link.stats.get("wire_bytes") == 4 * FLIT_BYTES

    def test_packing_reduces_wire_bytes_under_load(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        for i in range(8):
            chan.send(self._msg(8, lambda i=i: got.append(i)))
        engine.run()
        assert sorted(got) == list(range(8))
        assert link.stats.get("wire_bytes") < 8 * FLIT_BYTES

    def test_every_packed_message_delivered_exactly_once(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        for i in range(100):
            chan.send(self._msg(5 + i % 20, lambda i=i: got.append(i)))
        engine.run()
        assert sorted(got) == list(range(100))

    def test_idle_link_flushes_immediately(self):
        engine, link, chan = self._channel(packing=True)
        arrivals = []
        chan.send(self._msg(8, lambda: arrivals.append(engine.now)))
        engine.run()
        # One small message on an idle link: no packing delay beyond
        # serialization + latency.
        assert arrivals[0] <= 2 + FLIT_BYTES // 8 + 1

    def test_large_messages_bypass_packer(self):
        engine, link, chan = self._channel(packing=True)
        got = []
        message = self._msg(128, lambda: got.append(message))
        chan.send(message)
        engine.run()
        assert got == [message]
        assert chan.stats.get("direct_messages") == 1

    def test_packing_efficiency_metric(self):
        engine, link, chan = self._channel(packing=True)
        for _ in range(16):
            chan.send(self._msg(8, None))
        engine.run()
        # The measured efficiency is the report-level useful / wire bytes;
        # here: every payload byte is counted once, and packing puts the
        # 16 messages on fewer wire bytes than 16 whole flits.
        assert chan.stats.get("payload_bytes") == 128
        assert link.stats.get("wire_bytes") < 16 * FLIT_BYTES

    def test_flush_waits_count_from_a_cycle_zero_send(self):
        engine, link, chan = self._channel(packing=True)
        tracer = TraceRecorder(tck_ns=1000.0)  # 1 cycle == 1 us of ``ts``
        engine.tracer = tracer
        # A direct 128 B send at cycle 0 keeps the link busy ...
        chan.send(self._msg(128, None))
        assert link.free_at > 0
        # ... so a small request message sent at cycle 0 is buffered.
        request = MemoryRequest(addr=0, size=8)
        chan.send(Message(MessageKind.MEM_REQUEST, payload_bytes=8,
                          destination="d", cargo=request))
        assert chan.pending == 1
        engine.run()
        flushes = [event for event in tracer.events
                   if event["name"] == "flit_flush"]
        assert len(flushes) == 1
        flush_cycle = int(flushes[0]["ts"])
        assert flush_cycle == chan.flush_timeout
        assert flushes[0]["args"]["reqs"] == [request.req_id]
        assert flushes[0]["args"]["waits"] == [flush_cycle]


def build_pool(comm):
    engine = Engine()
    root = Component(engine, "sys")
    pool = MemoryPool(engine, "pool", root, comm)
    pool.fabric.add_host()
    pool.fabric.add_switch("sw0")
    pool.fabric.add_switch("sw1")
    pool.add_dimm("d0.0", "sw0", DimmKind.CXLG)
    pool.add_dimm("d0.1", "sw0", DimmKind.UNMODIFIED_CXL)
    pool.add_dimm("d1.0", "sw1", DimmKind.UNMODIFIED_CXL)
    return engine, pool


class TestRouting:
    def test_same_switch_with_bias_avoids_host(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("d0.0", "d0.1")
        assert not route.via_host
        assert route.hop_count == 3  # up, switch bus, down

    def test_same_switch_without_bias_detours(self):
        _engine, pool = build_pool(CommParams(device_bias=False))
        route = pool.fabric.route("d0.0", "d0.1", force_host=True)
        assert route.via_host
        assert route.hop_count == 7

    def test_cross_switch_always_via_host(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("d0.0", "d1.0")
        assert route.via_host

    def test_switch_sourced_route(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        route = pool.fabric.route("sw0", "d0.1")
        assert route.hop_count == 2
        assert not route.via_host

    def test_self_route_is_empty(self):
        _engine, pool = build_pool(CommParams())
        assert pool.fabric.route("d0.0", "d0.0").hop_count == 0

    def test_turnaround_accounting(self):
        _engine, pool = build_pool(CommParams(device_bias=True))
        pool.fabric.route("d0.0", "d0.1")
        assert pool.fabric.switches["sw0"].stats.get("in_switch_turnarounds") == 1


class TestPackedMultiHop:
    """Packed channels driving messages across multi-hop routes."""

    SENDS = 60

    def _run(self):
        engine, pool = build_pool(CommParams(data_packing=True,
                                             device_bias=True))
        fabric = pool.fabric
        routes = {
            # up, switch bus, down
            "turnaround": fabric.route("d0.0", "d0.1"),
            # up, switch bus, host link, host bus, back down: crosses
            # sw0's bus twice
            "detour": fabric.route("d0.0", "d0.1", force_host=True),
        }
        got = {name: [] for name in routes}
        payloads = [4 + (i * 7) % 37 for i in range(self.SENDS)]
        for i, size in enumerate(payloads):
            for name, route in routes.items():
                fabric.send(route, MessageKind.MEM_RESPONSE, size,
                            on_delivered=lambda n=name, i=i: got[n].append(i))
        engine.run()
        return routes, got, payloads

    def test_routes_have_the_expected_shape(self):
        routes, _got, _payloads = self._run()
        assert routes["turnaround"].hop_count == 3
        assert not routes["turnaround"].via_host
        assert routes["detour"].hop_count == 7
        assert routes["detour"].via_host

    def test_each_callback_fires_once_in_route_order(self):
        _routes, got, _payloads = self._run()
        for name in got:
            assert got[name] == list(range(self.SENDS)), name

    def test_wire_bytes_follow_the_flit_math(self):
        routes, _got, payloads = self._run()
        crossings = {}
        for route in routes.values():
            for chan in route.hops:
                crossings[chan] = crossings.get(chan, 0) + 1
        packed_bytes = sum(size + 2 for size in payloads)  # 2 B packed header
        batched = False
        for chan, times in crossings.items():
            flits = chan.stats.get("packed_flits")
            messages = chan.stats.get("packed_messages")
            # Every payload is sub-flit: all of them ride the packer.
            assert chan.stats.get("direct_messages") == 0
            assert messages == times * self.SENDS
            assert chan.stats.get("payload_bytes") == times * sum(payloads)
            assert chan.link.stats.get("wire_bytes") == flits * FLIT_BYTES
            # Packing never costs more than a flit per message, nor less
            # than the packed bytes need.
            assert -(-times * packed_bytes // FLIT_BYTES) <= flits <= messages
            batched = batched or flits < messages
        assert batched, "no hop ever packed two messages into one flush"


class TestAccessPath:
    def _request(self, addr=0, size=32, kind=AccessKind.READ, dimm=1):
        mapping = ChipInterleaveMapping(GEO, chips_per_group=16)
        req = MemoryRequest(addr=addr, size=size, kind=kind)
        req.coord = mapping.map(addr)
        req.dimm_index = dimm
        return req

    def test_read_round_trip_completes(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        done = []
        req = self._request()
        req.on_complete = lambda r: done.append(r)
        pool.access(req, "d0.0")
        engine.run()
        assert done and done[0].latency > 0

    def test_bias_faster_than_detour(self):
        def run(device_bias):
            engine, pool = build_pool(CommParams(device_bias=device_bias))
            done = []
            req = self._request()
            req.on_complete = lambda r: done.append(r)
            pool.access(req, "d0.0")
            engine.run()
            return done[0].latency

        assert run(True) < run(False)

    def test_untranslated_request_rejected(self):
        engine, pool = build_pool(CommParams())
        with pytest.raises(ValueError):
            pool.access(MemoryRequest(addr=0, size=8), "d0.0")

    def test_local_atomic_runs_read_and_write(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        done = []
        req = self._request(kind=AccessKind.ATOMIC_RMW, dimm=0)
        req.on_complete = lambda r: done.append(r)
        pool.access(req, "d0.0")
        engine.run()
        assert done
        mc = pool.controllers[0]
        assert mc.stats.get("issued") == 2  # read + write

    def test_remote_atomic_requires_engine(self):
        engine, pool = build_pool(CommParams(device_bias=True))
        req = self._request(kind=AccessKind.ATOMIC_RMW, dimm=1)
        with pytest.raises(RuntimeError, match="atomic engine"):
            pool.access(req, "d0.0")
        engine.run()

    def test_idealized_comm_is_faster(self):
        def run(comm):
            engine, pool = build_pool(comm)
            done = []
            for i in range(50):
                req = self._request(addr=i * 64, size=64)
                req.on_complete = lambda r: done.append(r)
                pool.access(req, "d0.0")
            engine.run()
            assert len(done) == 50
            return engine.now

        real = run(CommParams(device_bias=True))
        ideal = run(CommParams(device_bias=True).idealized())
        assert ideal < real
