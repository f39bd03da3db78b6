"""Tests for regions, layouts, allocator, placement, and the framework."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.mapping import RankInterleaveMapping
from repro.dram.request import DataClass, MemoryRequest
from repro.dram.timing import DimmGeometry
from repro.memmgmt import (
    AllocationError,
    AllocationRequest,
    BlockMapLayout,
    PlacementPlanner,
    PoolAllocator,
    Region,
    RegionMap,
    ReplicatedLayout,
    StripedLayout,
)

GEO = DimmGeometry()


class TestStripedLayout:
    def test_round_robin(self):
        layout = StripedLayout([3, 7], stripe_bytes=64)
        assert layout.locate(0) == (3, 0)
        assert layout.locate(64) == (7, 0)
        assert layout.locate(128) == (3, 64)
        assert layout.locate(70) == (7, 6)

    @settings(max_examples=100)
    @given(st.integers(0, 1 << 24), st.integers(0, 1 << 24))
    def test_injective(self, a, b):
        layout = StripedLayout([0, 1, 2], stripe_bytes=128)
        if a != b:
            assert layout.locate(a) != layout.locate(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedLayout([])
        with pytest.raises(ValueError):
            StripedLayout([1], stripe_bytes=0)

    def test_bytes_on_dimm(self):
        layout = StripedLayout([0, 1], stripe_bytes=64)
        assert layout.bytes_on_dimm(0, 1000) >= 500
        assert layout.bytes_on_dimm(9, 1000) == 0


class TestBlockMapLayout:
    def test_dense_per_dimm_slots(self):
        layout = BlockMapLayout(32, [5, 9, 5, 9, 5])
        assert layout.locate(0) == (5, 0)
        assert layout.locate(32) == (9, 0)
        assert layout.locate(64) == (5, 32)
        assert layout.locate(4 * 32 + 7) == (5, 2 * 32 + 7)

    def test_out_of_range(self):
        layout = BlockMapLayout(32, [0])
        with pytest.raises(ValueError):
            layout.locate(32)

    def test_dimm_indices_and_bytes(self):
        layout = BlockMapLayout(16, [2, 2, 4])
        assert layout.dimm_indices == (2, 4)
        assert layout.bytes_on_dimm(2, 48) == 32
        assert layout.bytes_on_dimm(4, 48) == 16


class TestReplicatedLayout:
    def _layout(self):
        return ReplicatedLayout(
            {"sw0": StripedLayout([0, 1]), "sw1": StripedLayout([2, 3])},
            home_resolver=lambda node: {"d0.0": "sw0", "d1.0": "sw1",
                                        "sw0": "sw0", "sw1": "sw1"}.get(node),
        )

    def test_requester_selects_replica(self):
        layout = self._layout()
        assert layout.locate(0, requester="d0.0")[0] in (0, 1)
        assert layout.locate(0, requester="d1.0")[0] in (2, 3)
        assert layout.locate(0, requester="sw1")[0] in (2, 3)

    def test_unknown_requester_uses_default(self):
        layout = self._layout()
        assert layout.locate(0, requester="mystery")[0] in (0, 1)
        assert layout.locate(0)[0] in (0, 1)

    def test_indices_union(self):
        assert self._layout().dimm_indices == (0, 1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedLayout({})


class TestRegionMap:
    def _region(self, name, base, size):
        mapping = RankInterleaveMapping(GEO)
        return Region(name=name, base=base, size=size,
                      data_class=DataClass.GENERIC,
                      layout=StripedLayout([0]), mappings={0: mapping})

    def test_find_and_translate(self):
        rmap = RegionMap()
        rmap.add(self._region("a", 0, 1000))
        rmap.add(self._region("b", 4096, 1000))
        assert rmap.find(500).name == "a"
        assert rmap.find(4500).name == "b"
        with pytest.raises(KeyError):
            rmap.find(2000)
        req = MemoryRequest(addr=4200, size=8)
        rmap.translate(req)
        assert req.dimm_index == 0
        assert req.coord is not None

    def test_overlap_rejected(self):
        rmap = RegionMap()
        rmap.add(self._region("a", 0, 1000))
        with pytest.raises(ValueError):
            rmap.add(self._region("b", 999, 10))

    def test_remove(self):
        rmap = RegionMap()
        rmap.add(self._region("a", 0, 100))
        rmap.remove("a")
        with pytest.raises(KeyError):
            rmap.find(0)
        with pytest.raises(KeyError):
            rmap.remove("a")

    def test_by_name(self):
        rmap = RegionMap()
        rmap.add(self._region("a", 0, 100))
        assert rmap.by_name("a").size == 100
        with pytest.raises(KeyError):
            rmap.by_name("nope")


def _searched(rmap, addr, requester=None):
    """``(dimm_index, coord)`` of ``addr`` by binary search, no cache."""
    region = rmap.find(addr)
    dimm, local = region.layout.locate(addr - region.base, requester)
    return dimm, region.mappings[dimm].map(local)


def _translated(rmap, addr, requester=None):
    request = MemoryRequest(addr=addr, size=8)
    rmap.translate(request, requester)
    return request.dimm_index, request.coord


class TestLastHitTranslation:
    """``RegionMap.translate`` tries the last region hit before searching."""

    def _region(self, name, base, size, dimms):
        # Distinct row bases per region, so a wrong region shows in coords.
        mappings = {d: RankInterleaveMapping(GEO, row_base=7 * (base >> 12) + d)
                    for d in dimms}
        return Region(name=name, base=base, size=size,
                      data_class=DataClass.GENERIC,
                      layout=StripedLayout(dimms), mappings=mappings)

    def _map(self):
        rmap = RegionMap()
        rmap.add(self._region("a", 0, 4096, [0, 1]))
        rmap.add(self._region("b", 8192, 4096, [2]))
        rmap.add(self._region("c", 16384, 8192, [0, 2, 3]))
        return rmap

    def _addresses(self):
        # Runs of hits in one region interleaved with switches between all
        # three, so both the cached and the searched path are taken.
        out = []
        for i in range(40):
            out += [i * 97 % 4096, i * 97 % 4096 + 64,
                    8192 + i * 61 % 4096, 16384 + i * 211 % 8192,
                    16384 + i * 211 % 8192 + 8, i * 13 % 4096]
        return out

    def test_interleaved_addresses_match_search(self):
        rmap = self._map()
        for addr in self._addresses():
            assert _translated(rmap, addr) == _searched(rmap, addr)

    def test_region_edges(self):
        rmap = self._map()
        for addr in (0, 4095, 8192, 12287, 16384, 24575, 4095, 8192):
            assert _translated(rmap, addr) == _searched(rmap, addr)

    def test_gap_raises_key_error_after_a_hit(self):
        rmap = self._map()
        _translated(rmap, 100)
        for addr in (4096, 8191, 12288, 24576):
            with pytest.raises(KeyError, match=f"address {addr:#x} not in any region"):
                _translated(rmap, addr)

    def test_remove_drops_the_cached_region(self):
        rmap = self._map()
        _translated(rmap, 9000)  # last hit: b
        rmap.remove("b")
        with pytest.raises(KeyError, match="not in any region"):
            _translated(rmap, 9000)
        for addr in self._addresses():
            if 8192 <= addr < 12288:
                continue
            assert _translated(rmap, addr) == _searched(rmap, addr)

    def test_add_after_hits_matches_search(self):
        rmap = self._map()
        _translated(rmap, 100)  # last hit: a
        rmap.remove("a")
        rmap.add(self._region("a2", 0, 2048, [3]))
        rmap.add(self._region("d", 32768, 4096, [1, 2]))
        for addr in [10, 2047, 32768, 9000, 36863, 17000, 10]:
            assert _translated(rmap, addr) == _searched(rmap, addr)
        with pytest.raises(KeyError):
            _translated(rmap, 3000)  # a's old tail, no longer mapped

    def test_replicated_region_per_requester(self):
        alloc = make_allocator(cxlg_per_switch=0)
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        planner.hash_directory("dir", 4096)
        rmap = alloc.region_map
        region = rmap.by_name("dir")
        for addr in range(region.base, region.base + 4096, 320):
            for requester in ("d0.1", "d1.3", "sw1", None, "d0.1"):
                assert (_translated(rmap, addr, requester)
                        == _searched(rmap, addr, requester))


    def test_dimm_of_matches_translate(self):
        """The request-free lookup MEDAL/NEST migration uses picks the same
        DIMM as a full translation, through hits, misses and gaps."""
        rmap = self._map()
        for addr in self._addresses() + [0, 4095, 8192, 24575]:
            assert rmap.dimm_of(addr) == _searched(rmap, addr)[0]
        for addr in (4096, 24576):
            with pytest.raises(KeyError, match="not in any region"):
                rmap.dimm_of(addr)

    def test_dimm_of_per_requester_on_a_replicated_region(self):
        alloc = make_allocator(cxlg_per_switch=0)
        PlacementPlanner(alloc, GEO, optimized=True).hash_directory("dir", 4096)
        rmap = alloc.region_map
        region = rmap.by_name("dir")
        for addr in range(region.base, region.base + 4096, 320):
            for requester in ("d0.1", "d1.3", "sw1", None):
                assert (rmap.dimm_of(addr, requester)
                        == _searched(rmap, addr, requester)[0])


class TestReplicaCache:
    """``ReplicatedLayout`` resolves each requester's replica once."""

    def test_cached_replica_matches_home_of(self):
        alloc = make_allocator(cxlg_per_switch=0)
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        layout = planner.fm_index("fm", 256, 32).layout
        assert isinstance(layout, ReplicatedLayout)
        nodes = [alloc.dimm(d).node for d in alloc.all_dimms()]
        nodes += ["sw0", "sw1", None, "mystery"]
        for _ in range(2):  # the second pass reads the filled table
            for node in nodes:
                expected = layout.replicas[layout._home_of(node)]
                for offset in (0, 32, 4096):
                    assert layout.locate(offset, node) == expected.locate(offset, node)
        assert set(layout._replica_of) == set(nodes)
        for node in nodes:
            assert layout._replica_of[node] is layout.replicas[layout._home_of(node)]

    def test_each_node_resolved_once(self):
        calls = []

        def resolver(node):
            calls.append(node)
            return {"d0.0": "sw0", "d1.0": "sw1"}.get(node)

        layout = ReplicatedLayout(
            {"sw0": StripedLayout([0, 1]), "sw1": StripedLayout([2, 3])},
            home_resolver=resolver,
        )
        for offset in range(0, 640, 64):
            for node in ("d0.0", "d1.0", "d1.0"):
                layout.locate(offset, requester=node)
        assert calls == ["d0.0", "d1.0"]


def make_allocator(cxlg_per_switch=1, dimms_per_switch=4, switches=2,
                   tenant_bytes=0):
    alloc = PoolAllocator()
    index = 0
    for s in range(switches):
        for j in range(dimms_per_switch):
            alloc.register_dimm(
                index, f"d{s}.{j}", f"sw{s}", is_cxlg=j < cxlg_per_switch,
                tenant_bytes=tenant_bytes,
            )
            index += 1
    return alloc


class TestAllocator:
    def test_dimms_near_orders_cxlg_first(self):
        alloc = make_allocator()
        near = alloc.dimms_near("sw1")
        assert near[0] == 4  # the CXLG-DIMM of sw1
        assert all(alloc.dimm(d).switch == "sw1" for d in near)

    def test_dedicate_and_release(self):
        alloc = make_allocator(tenant_bytes=8192)
        migrated = alloc.dedicate([0, 1], "me")
        assert migrated == 2 * 8192
        assert alloc.dimm(0).non_cacheable
        assert alloc.page_table_updates == 4
        with pytest.raises(AllocationError):
            alloc.dedicate([0], "someone-else")
        alloc.release([0, 1], "me")
        assert alloc.dimm(0).dedicated_to is None

    def test_release_wrong_owner(self):
        alloc = make_allocator()
        alloc.dedicate([0], "me")
        with pytest.raises(AllocationError):
            alloc.release([0], "other")

    def test_region_rows_accounted_disjointly(self):
        alloc = make_allocator()
        factory = lambda dimm, row_base: RankInterleaveMapping(GEO, row_base=row_base)
        r1 = alloc.allocate_region("a", 1 << 22, DataClass.GENERIC,
                                   StripedLayout([0, 1]), factory)
        used_after_first = alloc.dimm(0).used_rows
        assert used_after_first > 0
        r2 = alloc.allocate_region("b", 1 << 22, DataClass.GENERIC,
                                   StripedLayout([0, 1]), factory)
        assert r2.mappings[0].row_base == used_after_first
        assert r2.base >= r1.base + r1.size

    def test_capacity_exhaustion(self):
        alloc = PoolAllocator()
        alloc.register_dimm(0, "d0", "sw0", is_cxlg=False, total_rows=2)
        factory = lambda dimm, row_base: RankInterleaveMapping(GEO, row_base=row_base)
        with pytest.raises(AllocationError):
            alloc.allocate_region("big", 1 << 30, DataClass.GENERIC,
                                  StripedLayout([0]), factory)

    def test_free_region(self):
        alloc = make_allocator()
        factory = lambda dimm, row_base: RankInterleaveMapping(GEO, row_base=row_base)
        alloc.allocate_region("a", 4096, DataClass.GENERIC,
                              StripedLayout([0]), factory)
        alloc.free_region("a")
        with pytest.raises(KeyError):
            alloc.region_map.by_name("a")


class TestPlacementPlanner:
    def test_naive_stripes_everything_lockstep(self):
        alloc = make_allocator()
        planner = PlacementPlanner(alloc, GEO, optimized=False)
        region = planner.fm_index("fm", 1024, 32)
        assert isinstance(region.layout, StripedLayout)
        assert set(region.layout.dimm_indices) == set(range(8))
        assert all(m.chips_per_group == 16 for m in region.mappings.values())

    def test_optimized_fm_replicates_and_uses_fine_grained(self):
        alloc = make_allocator()
        planner = PlacementPlanner(alloc, GEO, optimized=True,
                                   fine_grained_chips=1)
        hot = np.arange(1024)[::-1]
        region = planner.fm_index("fm", 1024, 32, hot_scores=hot)
        assert isinstance(region.layout, ReplicatedLayout)
        cxlg_mapping = region.mappings[0]  # dimm 0 is CXLG
        assert cxlg_mapping.chips_per_group == 1
        assert region.mappings[1].chips_per_group == 16

    def test_hot_blocks_go_to_cxlg(self):
        alloc = make_allocator()
        planner = PlacementPlanner(alloc, GEO, optimized=True,
                                   near_fraction=0.25)
        hot = np.zeros(100)
        hot[:10] = 1000  # blocks 0..9 are hot
        region = planner.fm_index("fm", 100, 32, hot_scores=hot)
        replica = region.layout.replicas["sw0"]
        for block in range(10):
            dimm, _ = replica.locate(block * 32)
            assert alloc.dimm(dimm).is_cxlg

    def test_optimized_without_cxlg_replicates_lockstep(self):
        alloc = make_allocator(cxlg_per_switch=0)
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        region = planner.fm_index("fm", 256, 32)
        assert isinstance(region.layout, ReplicatedLayout)
        assert all(m.chips_per_group == 16 for m in region.mappings.values())

    def test_replicas_serve_local_switch(self):
        alloc = make_allocator(cxlg_per_switch=0)
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        region = planner.hash_directory("dir", 4096)
        d_sw0, _ = region.layout.locate(0, requester="d0.2")
        d_sw1, _ = region.layout.locate(0, requester="d1.2")
        assert alloc.dimm(d_sw0).switch == "sw0"
        assert alloc.dimm(d_sw1).switch == "sw1"

    def test_bloom_homed_vs_global(self):
        alloc = make_allocator()
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        homed = planner.bloom_filter("b1", 4096, home_switch="sw0")
        assert all(alloc.dimm(d).switch == "sw0"
                   for d in homed.layout.dimm_indices)
        global_ = planner.bloom_filter("b2", 4096, home_switch=None)
        assert set(global_.layout.dimm_indices) == set(range(8))

    def test_bloom_home_dimm_pins_single_dimm(self):
        alloc = make_allocator()
        planner = PlacementPlanner(alloc, GEO, optimized=False,
                                   baseline_fixed=True)
        region = planner.bloom_filter("b", 4096, home_dimm=3)
        assert region.layout.dimm_indices == (3,)

    def test_baseline_fixed_uses_fine_grained_striping(self):
        alloc = make_allocator()
        # Baselines: every DIMM is a customized, fine-grained DIMM.
        for d in alloc.all_dimms():
            alloc.dimm(d).is_cxlg = True
        planner = PlacementPlanner(alloc, GEO, optimized=False,
                                   baseline_fixed=True, fine_grained_chips=1)
        region = planner.fm_index("fm", 512, 32)
        assert isinstance(region.layout, StripedLayout)
        assert all(m.chips_per_group == 1 for m in region.mappings.values())

    def test_hash_locations_row_major_when_optimized(self):
        alloc = make_allocator(cxlg_per_switch=0)
        planner = PlacementPlanner(alloc, GEO, optimized=True)
        region = planner.hash_locations("loc", 1 << 16)
        mapping = next(iter(region.mappings.values()))
        coords = [mapping.map(a) for a in range(0, 2048, 256)]
        assert len({(c.rank, c.bank, c.row) for c in coords}) == 1

    def test_near_fraction_validation(self):
        alloc = make_allocator()
        with pytest.raises(ValueError):
            PlacementPlanner(alloc, GEO, optimized=True, near_fraction=0.0)


class TestFrameworkProtocol:
    def test_allocate_success_and_failure(self):
        from repro.core import BeaconD
        from repro.core.config import BeaconConfig

        system = BeaconD(config=BeaconConfig().scaled(16))
        response = system.framework.allocate(
            AllocationRequest("app", "alg", "ds", 4096),
            lambda: system.planner.reference("ref", 4096),
        )
        assert response.success
        assert response.region is not None

        def failing():
            raise AllocationError("no space")

        response = system.framework.allocate(
            AllocationRequest("app", "alg", "ds", 4096), failing
        )
        assert not response.success
        assert "no space" in response.error

    def test_deallocate(self):
        from repro.core import BeaconD
        from repro.core.config import BeaconConfig

        system = BeaconD(config=BeaconConfig().scaled(16))
        system.framework.allocate(
            AllocationRequest("app", "alg", "ds", 4096),
            lambda: system.planner.reference("ref", 4096),
        )
        assert system.framework.deallocate("ref").success
        assert not system.framework.deallocate("ref").success

    def test_control_round_trip_delivers_response(self):
        from repro.core import BeaconD
        from repro.core.config import BeaconConfig

        system = BeaconD(config=BeaconConfig().scaled(16))
        responses = []
        system.framework.allocate(
            AllocationRequest("app", "alg", "ds", 4096),
            lambda: system.planner.reference("ref", 4096),
            on_response=responses.append,
        )
        system.engine.run()
        assert len(responses) == 1 and responses[0].success


class TestTranslatorCounters:
    def test_fine_grained_count_matches_data_class_property(self):
        from repro.core.address_translator import AddressTranslator
        from repro.sim import Engine

        rmap = RegionMap()
        rmap.add(Region(name="r", base=0, size=1 << 16,
                        data_class=DataClass.GENERIC,
                        layout=StripedLayout([0]),
                        mappings={0: RankInterleaveMapping(GEO)}))
        translator = AddressTranslator(Engine(), "xlat", None, rmap, "d0.0")
        classes = list(DataClass) * 3 + [DataClass.FM_INDEX_BLOCK] * 4
        for i, data_class in enumerate(classes):
            request = MemoryRequest(addr=i * 40, size=8, data_class=data_class)
            assert translator.translate(request) is request
        counters = translator.stats.counters
        assert counters["translations"] == len(classes)
        assert counters["fine_grained"] == sum(
            1 for c in classes if c.fine_grained
        )
