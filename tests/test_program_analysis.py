"""Tests for repro.analysis.program: the whole-program lint layer.

Fixture mini-packages (violating + clean variants) per program rule,
call-graph edge cases (aliased imports, method-vs-function shadowing,
ambiguous receivers, ``self`` calls), cross-file suppression semantics,
the ``repro-lint/2`` report round-trip, and the ``lint`` verb's exit
codes.
"""

import json
import textwrap

import repro.__main__ as repro_main
from repro.analysis import (
    LINT_SCHEMA,
    PROGRAM_RULES,
    lint_paths,
)


def lint_cli(argv):
    return repro_main.main(["lint", *argv])


def write_tree(root, files):
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    return root


def rule_findings(root, rule_id):
    report = lint_paths([root], rules=[rule_id])
    return [f for f in report.findings if f.rule == rule_id]


# A two-hop wall-clock taint: sim code -> helper -> clock read.
WALL_TAINT_TREE = {
    "util.py": """
        import time

        def read_clock():
            return time.time()

        def helper():
            return read_clock()
    """,
    "sim/engine.py": """
        from util import helper

        def step():
            return helper()
    """,
}


class TestTransitiveWallClock:
    def test_two_hop_taint_reaches_sim_call_site(self, tmp_path):
        write_tree(tmp_path, WALL_TAINT_TREE)
        findings = rule_findings(tmp_path, "transitive-wall-clock")
        assert [f.path for f in findings] == ["sim/engine.py"]
        finding = findings[0]
        assert "wall-clock read" in finding.message
        assert "time.time" in finding.message
        # Witness chain: flagged call site -> helper -> read_clock -> source.
        assert len(finding.paths) >= 3
        assert finding.paths[0][0] == "sim/engine.py"
        assert finding.paths[-1][0] == "util.py"
        assert finding.paths[-1][2].startswith("time.time")

    def test_clean_twin_has_no_findings(self, tmp_path):
        write_tree(tmp_path, {
            "util.py": """
                def helper(engine):
                    return engine.now
            """,
            "sim/engine.py": """
                from util import helper

                def step(engine):
                    return helper(engine)
            """,
        })
        assert rule_findings(tmp_path, "transitive-wall-clock") == []

    def test_taint_outside_ordered_dirs_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "util.py": WALL_TAINT_TREE["util.py"],
            "tools/report.py": """
                from util import helper

                def stamp():
                    return helper()
            """,
        })
        assert rule_findings(tmp_path, "transitive-wall-clock") == []

    def test_call_site_suppression(self, tmp_path):
        tree = dict(WALL_TAINT_TREE)
        tree["sim/engine.py"] = """
            from util import helper

            def step():
                # repro: allow[transitive-wall-clock] -- telemetry only.
                return helper()
        """
        write_tree(tmp_path, tree)
        report = lint_paths([tmp_path], rules=["transitive-wall-clock"])
        assert [f.rule for f in report.active] == []
        assert [f.rule for f in report.suppressed] == [
            "transitive-wall-clock"
        ]
        assert "telemetry only" in report.suppressed[0].reason

    def test_cross_file_root_suppression_clears_downstream(self, tmp_path):
        """Sanctioning the source de-taints every caller in other files."""
        tree = dict(WALL_TAINT_TREE)
        tree["util.py"] = """
            import time

            def read_clock():
                # repro: allow[transitive-wall-clock] -- host-side only.
                return time.time()

            def helper():
                return read_clock()
        """
        write_tree(tmp_path, tree)
        assert rule_findings(tmp_path, "transitive-wall-clock") == []

    def test_boundary_suppression_stops_cascade_midway(self, tmp_path):
        """A suppressed call edge de-taints its (transitive) callers."""
        write_tree(tmp_path, {
            "util.py": WALL_TAINT_TREE["util.py"],
            "bridge.py": """
                from util import helper

                def record():
                    # repro: allow[transitive-wall-clock] -- provenance.
                    return helper()
            """,
            "sim/engine.py": """
                from bridge import record

                def step():
                    return record()
            """,
        })
        assert rule_findings(tmp_path, "transitive-wall-clock") == []


class TestTransitiveUnseededRng:
    def test_global_rng_taint(self, tmp_path):
        write_tree(tmp_path, {
            "noise.py": """
                import random

                def jitter():
                    return random.random()
            """,
            "genomics/sample.py": """
                from noise import jitter

                def draw():
                    return jitter()
            """,
        })
        findings = rule_findings(tmp_path, "transitive-unseeded-rng")
        assert [f.path for f in findings] == ["genomics/sample.py"]
        assert "RNG" in findings[0].message
        assert findings[0].paths[-1][0] == "noise.py"

    def test_seeded_twin_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "noise.py": """
                import random

                def jitter(seed):
                    return random.Random(seed).random()
            """,
            "genomics/sample.py": """
                from noise import jitter

                def draw(seed):
                    return jitter(seed)
            """,
        })
        assert rule_findings(tmp_path, "transitive-unseeded-rng") == []


class TestCallGraphEdgeCases:
    def test_aliased_import_resolves(self, tmp_path):
        write_tree(tmp_path, {
            "util.py": WALL_TAINT_TREE["util.py"],
            "sim/engine.py": """
                from util import helper as h

                def step():
                    return h()
            """,
        })
        findings = rule_findings(tmp_path, "transitive-wall-clock")
        assert [f.path for f in findings] == ["sim/engine.py"]

    def test_method_vs_function_shadowing(self, tmp_path):
        """An annotated receiver picks the method, not the same-named
        module function; an unimported bare name gets no edge."""
        write_tree(tmp_path, {
            "dev.py": """
                import time

                class Device:
                    def reset(self):
                        return time.time()

                def reset():
                    return 0
            """,
            "sim/run.py": """
                from dev import Device

                def go(d: Device):
                    return d.reset()

                def local():
                    return reset()
            """,
        })
        findings = rule_findings(tmp_path, "transitive-wall-clock")
        assert len(findings) == 1
        assert "Device.reset" in findings[0].message

    def test_ambiguous_receiver_gets_no_edge(self, tmp_path):
        """Two classes defining the method and no annotation: no edge,
        no finding — the graph under-approximates."""
        write_tree(tmp_path, {
            "a.py": """
                import time

                class A:
                    def tick(self):
                        return time.time()
            """,
            "b.py": """
                class B:
                    def tick(self):
                        return 0
            """,
            "sim/amb.py": """
                def go(x):
                    return x.tick()
            """,
        })
        assert rule_findings(tmp_path, "transitive-wall-clock") == []

    def test_self_call_resolves_through_class(self, tmp_path):
        write_tree(tmp_path, {
            "sim/comp.py": """
                import time

                class Component:
                    def _stamp(self):
                        return time.time()

                    def run(self):
                        return self._stamp()
            """,
        })
        findings = rule_findings(tmp_path, "transitive-wall-clock")
        assert len(findings) == 1
        assert "Component._stamp" in findings[0].message


class TestReportRoundTrip:
    def test_lint2_schema_and_paths(self, tmp_path):
        write_tree(tmp_path, WALL_TAINT_TREE)
        report = lint_paths([tmp_path])
        payload = report.to_dict()
        assert payload["schema"] == LINT_SCHEMA == "repro-lint/2"
        program = [
            f for f in payload["findings"]
            if f["rule"] == "transitive-wall-clock"
        ]
        assert program, payload["findings"]
        hops = program[0]["paths"]
        assert all(set(h) == {"path", "line", "symbol"} for h in hops)
        # Round-trips through JSON byte-identically.
        text = json.dumps(payload, indent=2, sort_keys=True)
        assert json.loads(text) == payload

    def test_per_file_findings_have_no_paths_key(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\nRNG = random.Random()\n"
        )
        payload = lint_paths([tmp_path]).to_dict()
        finding = payload["findings"][0]
        assert finding["rule"] == "seeded-rng-only"
        assert "paths" not in finding

    def test_program_rules_listed_in_report(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n")
        payload = lint_paths([tmp_path]).to_dict()
        for rule_id in PROGRAM_RULES:
            assert rule_id in payload["rules"]


class TestCli:
    def test_each_program_rule_exits_nonzero_on_seeded_violation(
        self, tmp_path, capsys
    ):
        trees = {
            "transitive-wall-clock": WALL_TAINT_TREE,
            "transitive-unseeded-rng": {
                "noise.py": "import random\n\n\ndef jitter():\n"
                            "    return random.random()\n",
                "genomics/s.py": "from noise import jitter\n\n\n"
                                 "def draw():\n    return jitter()\n",
            },
        }
        for rule_id, files in trees.items():
            root = tmp_path / rule_id
            write_tree(root, files)
            assert lint_cli([str(root)]) == 1, rule_id
            assert rule_id in capsys.readouterr().out

    def test_rule_filter_accepts_program_rule(self, tmp_path, capsys):
        write_tree(tmp_path, WALL_TAINT_TREE)
        assert lint_cli(
            [str(tmp_path), "--rule", "transitive-wall-clock"]
        ) == 1
        out = capsys.readouterr().out
        assert "via util.py:" in out  # witness chain is printed
        assert lint_cli([str(tmp_path), "--rule", "no-set-iteration-order"]) == 0

    def test_list_rules_includes_program_rules(self, capsys):
        assert lint_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in PROGRAM_RULES:
            assert rule_id in out


class TestRegistryHygiene:
    def test_program_rules_registered(self):
        assert set(PROGRAM_RULES) == {
            "transitive-wall-clock",
            "transitive-unseeded-rng",
        }

    def test_program_and_file_registries_disjoint(self):
        from repro.analysis import RULES

        assert not set(RULES) & set(PROGRAM_RULES)
