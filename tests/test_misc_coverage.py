"""Small-surface tests that pin down edge cases across modules."""

import pytest

from repro.cxl import CommParams, IDEAL_LINK_PARAMS, LinkParams
from repro.cxl.flit import (
    FLIT_BYTES,
    Message,
    MessageKind,
    PACKED_HEADER_BYTES,
    REQUEST_HEADER_BYTES,
)
from repro.dram.request import AccessKind, DataClass, DramCoord, MemoryRequest
from repro.memmgmt.regions import Region, StripedLayout


def _noop():
    pass


class TestCommParams:
    def test_resolve_passthrough_and_ideal(self):
        comm = CommParams()
        assert comm.resolve(comm.cxl_link) is comm.cxl_link
        ideal = comm.idealized()
        assert ideal.resolve(comm.cxl_link) is IDEAL_LINK_PARAMS
        assert ideal.dimm_local_latency == 0

    def test_flags_default_off(self):
        comm = CommParams()
        assert not comm.data_packing and not comm.device_bias


class TestMessageHeaders:
    def test_request_header_larger_than_packed(self):
        assert REQUEST_HEADER_BYTES > PACKED_HEADER_BYTES

    def test_kind_specific_header(self):
        req = Message(MessageKind.MEM_REQUEST, 8, _noop)
        resp = Message(MessageKind.MEM_RESPONSE, 8, _noop)
        ctrl = Message(MessageKind.CONTROL, 8, _noop)
        assert req.header_bytes == REQUEST_HEADER_BYTES
        assert resp.header_bytes == PACKED_HEADER_BYTES
        assert ctrl.header_bytes == PACKED_HEADER_BYTES

    def test_exact_flit_boundary(self):
        m = Message(MessageKind.MEM_RESPONSE, FLIT_BYTES - PACKED_HEADER_BYTES,
                    _noop)
        assert m.unpacked_wire_bytes == FLIT_BYTES
        m2 = Message(MessageKind.MEM_RESPONSE,
                     FLIT_BYTES - PACKED_HEADER_BYTES + 1, _noop)
        assert m2.unpacked_wire_bytes == 2 * FLIT_BYTES

    def test_missing_callback_is_rejected(self):
        # A message's last step is its callback, so it must have one.
        with pytest.raises(ValueError, match="task message needs an "
                                             "on_delivered callback"):
            Message(MessageKind.TASK, 8)
        with pytest.raises(ValueError, match="mem_request"):
            Message(MessageKind.MEM_REQUEST, 8, on_delivered=None)


class TestMemoryRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryRequest(addr=-1, size=8)
        with pytest.raises(ValueError):
            MemoryRequest(addr=0, size=0)

    def test_latency_needs_both_ends(self):
        req = MemoryRequest(addr=0, size=8)
        assert req.latency is None
        req.issued_at = 10
        assert req.latency is None
        req.complete(now=25)
        assert req.latency == 15

    def test_complete_invokes_callback_once(self):
        hits = []
        req = MemoryRequest(addr=0, size=8, on_complete=hits.append)
        req.complete(now=5)
        assert hits == [req]

    def test_is_write(self):
        assert MemoryRequest(addr=0, size=1, kind=AccessKind.WRITE).is_write
        assert not MemoryRequest(addr=0, size=1,
                                 kind=AccessKind.ATOMIC_RMW).is_write


class TestDramCoord:
    def test_first_chip(self):
        coord = DramCoord(rank=0, bank=0, row=0, column=0, chip_group=3,
                          chips_per_group=4)
        assert coord.first_chip == 12

    def test_bank_key_hashable(self):
        coord = DramCoord(rank=1, bank=2, row=3, column=4, chip_group=0)
        assert hash(coord) == hash(coord)


class TestDataClass:
    def test_spatial_locality_partition(self):
        assert DataClass.HASH_LOCATIONS.spatially_local
        assert DataClass.REFERENCE_WINDOW.spatially_local
        assert not DataClass.FM_INDEX_BLOCK.spatially_local
        assert not DataClass.BLOOM_COUNTER.spatially_local

    def test_fine_grained_partition(self):
        assert DataClass.FM_INDEX_BLOCK.fine_grained
        assert DataClass.BLOOM_COUNTER.fine_grained
        assert not DataClass.REFERENCE_WINDOW.fine_grained


class TestRegion:
    def test_contains_and_end(self):
        region = Region(name="r", base=100, size=50,
                        data_class=DataClass.GENERIC,
                        layout=StripedLayout([0]), mappings={})
        assert region.contains(100)
        assert region.contains(149)
        assert not region.contains(150)
        assert not region.contains(99)
        assert region.end() == 150


class TestLinkParamsValidation:
    def test_ideal_skips_bandwidth_check(self):
        LinkParams(bytes_per_cycle=0, latency_cycles=0, ideal=True)

    def test_real_links_validated(self):
        with pytest.raises(ValueError):
            LinkParams(bytes_per_cycle=-1, latency_cycles=0)
