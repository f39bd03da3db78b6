"""Unit tests for the stats tree and its histograms."""

import pytest

from repro.sim import StatScope
from repro.sim.stats import Histogram


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

    def test_histograms(self):
        scope = StatScope("root")
        for v in (1, 2, 3, 4):
            scope.record("lat", v)
        hist = scope.histogram("lat")
        assert hist.count == 4
        assert hist.mean == 2.5
        assert hist.maximum == 4
        assert hist.minimum == 1

    def test_as_dict_nests(self):
        root = StatScope("root")
        root.add("x", 1)
        root.child("a").add("y", 2)
        snapshot = root.as_dict()
        assert snapshot["x"] == 1
        assert snapshot["a"]["y"] == 2


class TestHistogram:
    def test_percentile_bounds(self):
        hist = Histogram()
        for v in range(100):
            hist.record(v)
        assert hist.percentile(0) == 0
        assert hist.percentile(100) == 99
        assert 48 <= hist.percentile(50) <= 51

    def test_percentile_validation(self):
        hist = Histogram()
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_percentile_validation_when_empty(self):
        # The range check does not depend on having samples.
        hist = Histogram()
        for p in (101, -1):
            with pytest.raises(ValueError):
                hist.percentile(p)

    def test_empty_histogram_summary(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_reservoir_seed_is_set(self):
        # The reservoir RNG must be explicitly seeded before the first
        # replacement decision (sim/stats.py asserts this at run time).
        assert Histogram.RESERVOIR_SEED is not None
        hist = Histogram(cap=4)
        for v in range(10):
            hist.record(v)
        assert hist._rng is not None
        assert hist.saturated

    def test_reservoir_identical_across_hash_seeds(self, tmp_path):
        """Two identical runs keep identical reservoir contents even under
        different PYTHONHASHSEED values (regression: the reservoir must not
        inherit any interpreter-level randomization)."""
        import json
        import os
        import subprocess
        import sys
        import textwrap

        script = tmp_path / "reservoir_run.py"
        script.write_text(textwrap.dedent(
            """
            import json, sys
            from repro.sim.stats import Histogram

            hist = Histogram(cap=64)
            for v in range(10_000):
                hist.record((v * 2654435761) % 100_003)
            json.dump(hist.values, sys.stdout)
            """
        ))
        outputs = []
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) == 64
