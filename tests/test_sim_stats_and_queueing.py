"""Unit tests for the stats tree."""

from repro.sim import StatScope


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
