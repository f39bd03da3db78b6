"""Unit tests for the stats tree."""

from repro.cxl import CommParams
from repro.cxl.topology import MemoryPool
from repro.dram import ChipInterleaveMapping, DimmGeometry, DimmKind, MemoryRequest
from repro.sim import Engine, StatScope
from repro.sim.component import Component


class TestStatScope:
    def test_counters_add_and_get(self):
        scope = StatScope("root")
        scope.add("hits")
        scope.add("hits", 2)
        assert scope.get("hits") == 3
        assert scope.get("misses") == 0

    def test_set_overwrites(self):
        scope = StatScope("root")
        scope.add("x", 5)
        scope.set("x", 1)
        assert scope.get("x") == 1

    def test_child_scopes_are_cached(self):
        scope = StatScope("root")
        assert scope.child("a") is scope.child("a")

    def test_path(self):
        scope = StatScope("root")
        assert scope.child("a").child("b").path == "root.a.b"

    def test_total_aggregates_subtree(self):
        root = StatScope("root")
        root.add("energy", 1)
        root.child("a").add("energy", 2)
        root.child("a").child("b").add("energy", 3)
        root.child("c").add("energy", 4)
        assert root.total("energy") == 10
        assert root.child("a").total("energy") == 5

    def test_as_dict_nests(self):
        root = StatScope("root")
        root.add("x", 1)
        root.child("a").add("y", 2)
        snapshot = root.as_dict()
        assert snapshot["x"] == 1
        assert snapshot["a"]["y"] == 2


class TestZeroDefaultCounters:
    """``counters`` is a zero-default dict: a first write creates a key,
    and reading never creates one.  (Per-event counters are their owners'
    tallies; ``tests/test_stat_tallies.py`` covers those.)"""

    def test_first_add_stores_a_float(self):
        scope = StatScope("root")
        scope.add("k", 1)
        value = scope.counters["k"]
        assert value == 1.0
        assert type(value) is float

    def test_direct_increment_matches_add(self):
        via_add, direct = StatScope("a"), StatScope("b")
        for amount in (3, 0.25, 7):
            via_add.add("k", amount)
            direct.counters["k"] += amount
        assert via_add.as_dict() == direct.as_dict() == {"k": 10.25}

    def test_keys_keep_first_write_order(self):
        scope = StatScope("root")
        scope.counters["b"] += 1
        scope.add("a")
        scope.counters["b"] += 1
        assert list(scope.as_dict()) == ["b", "a"]

    def test_get_and_total_do_not_insert(self):
        root = StatScope("root")
        child = root.child("c")
        assert root.get("missing") == 0.0
        assert root.get("missing", 5.0) == 5.0
        assert root.total("missing") == 0.0
        assert "missing" not in root.counters
        assert "missing" not in child.counters
        assert root.as_dict() == {"c": {}}

    def test_as_dict_returns_plain_dicts(self):
        root = StatScope("root")
        root.add("x")
        root.child("a").add("y")
        snapshot = root.as_dict()
        assert type(snapshot) is dict
        assert type(snapshot["a"]) is dict

    def test_idle_link_and_channel_report_no_counters(self):
        engine = Engine()
        pool = MemoryPool(engine, "pool", Component(engine, "sys"),
                          CommParams(device_bias=True))
        fabric = pool.fabric
        fabric.add_host()
        fabric.add_switch("sw0")
        fabric.add_switch("sw1")
        geometry = DimmGeometry()
        pool.add_dimm("d0.0", "sw0", DimmKind.CXLG)
        pool.add_dimm("d0.1", "sw0", DimmKind.UNMODIFIED_CXL)
        pool.add_dimm("d1.0", "sw1", DimmKind.UNMODIFIED_CXL)
        request = MemoryRequest(addr=0, size=32)
        request.coord = ChipInterleaveMapping(geometry, chips_per_group=16).map(0)
        request.dimm_index = 1
        done = []
        request.on_complete = done.append
        pool.access(request, "d0.0")  # turns around inside sw0
        engine.run()
        assert done == [request]
        busy = fabric._channels[("d0.0", "sw0")]
        assert busy.stats.get("payload_bytes") > 0
        assert busy.link.stats.get("wire_bytes") > 0
        idle = fabric._channels[("sw1", "d1.0")]
        assert idle.stats.as_dict() == {}
        assert idle.link.stats.as_dict() == {}
