"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from digest import digest  # noqa: E402
from workloads import Campaign  # noqa: E402

MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PKG = os.path.join(os.sep, "x", "src", "repro")


def key(path, name, line=1):
    return (path, line, name)


# -- layer fold ------------------------------------------------------------------


def test_layer_of_maps_module_paths():
    assert layers.layer_of(os.path.join(PKG, "dram", "controller.py"), PKG) == "dram"
    assert layers.layer_of(os.path.join(PKG, "obs", "telemetry", "ledger.py"), PKG) == "obs"
    assert layers.layer_of(os.path.join(PKG, "perf", "harness.py"), PKG) == layers.OTHER
    assert layers.layer_of(os.path.join(PKG, "__init__.py"), PKG) == layers.OTHER
    assert layers.layer_of("/usr/lib/python3/heapq.py", PKG) is None
    assert layers.layer_of("~", PKG) is None
    # A sibling directory whose name merely starts with the package's.
    assert layers.layer_of(os.path.join(PKG + "_old", "sim", "engine.py"), PKG) is None


def test_fold_charges_third_party_time_to_the_nearest_repro_caller():
    sim = key(os.path.join(PKG, "sim", "engine.py"), "run")
    dram = key(os.path.join(PKG, "dram", "bank.py"), "issue")
    lib = key("/usr/lib/python3/heapq.py", "heappush")
    inner = key("/usr/lib/python3/helper.py", "helper")
    root = key("bench/child.py", "<module>")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        sim: (1, 4, 2.0, 9.0, {root: (1, 1, 2.0, 9.0)}),
        dram: (3, 3, 1.0, 3.0, {sim: (3, 3, 1.0, 3.0)}),
        # 3 s of self time: 1 s when called from sim, 2 s from dram.
        lib: (5, 5, 3.0, 4.0, {sim: (2, 2, 1.0, 1.5), dram: (3, 3, 2.0, 2.5)}),
        # A library helper called only by the library function: its time
        # follows the library function's callers, by cumulative time.
        inner: (5, 5, 1.0, 1.0, {lib: (5, 5, 1.0, 1.0)}),
    }
    folded = layers.fold(stats, PKG)
    assert math.isclose(folded["sim"]["self_s"], 2.0 + 1.0 + 1.0 * 1.5 / 4.0)
    assert math.isclose(folded["dram"]["self_s"], 1.0 + 2.0 + 1.0 * 2.5 / 4.0)
    assert math.isclose(folded[layers.OTHER]["self_s"], 0.5)
    assert folded["sim"]["calls"] == 4 and folded["dram"]["calls"] == 3
    total = sum(entry["self_s"] for entry in folded.values())
    assert math.isclose(total, sum(v[2] for v in stats.values()))
    assert math.isclose(sum(layers.shares(folded).values()), 1.0)


def test_fold_survives_library_recursion():
    a = key("/lib/a.py", "a")
    b = key("/lib/b.py", "b")
    core = key(os.path.join(PKG, "core", "pe.py"), "step")
    stats = {
        core: (1, 1, 1.0, 3.0, {}),
        a: (2, 2, 1.0, 2.0, {core: (1, 1, 0.5, 2.0), b: (1, 1, 0.5, 1.0)}),
        b: (1, 1, 1.0, 1.0, {a: (1, 1, 1.0, 1.0)}),
    }
    folded = layers.fold(stats, PKG)
    assert math.isclose(sum(e["self_s"] for e in folded.values()), 3.0)
    assert math.isclose(sum(layers.shares(folded).values()), 1.0)


# -- digests ---------------------------------------------------------------------


def make_report():
    from repro.core.metrics import Report

    return Report(label="beacon-d CXL-vanilla", system="beacon-d",
                  algorithm="fm_seeding", dataset="Pt", runtime_cycles=1000,
                  tck_ns=1.25, energy_dram_nj=1.5, energy_comm_nj=2.5,
                  energy_compute_nj=0.5, tasks_completed=10, mem_requests=20,
                  wire_bytes=640.0, useful_bytes=64.0,
                  extra={"pe_utilization": 0.25, "host_detours": 3.0})


def test_every_report_field_moves_the_digest():
    base = make_report()
    reference = digest(base)
    assert digest(make_report()) == reference
    for field in dataclasses.fields(base):
        value = getattr(base, field.name)
        if isinstance(value, str):
            changed = value + "x"
        elif isinstance(value, dict):
            changed = dict(value, pe_utilization=0.2500000001)
        else:
            changed = value + 1
        assert digest(dataclasses.replace(base, **{field.name: changed})) != reference, field.name


def test_digest_rejects_unknown_objects():
    try:
        digest(object())
    except TypeError:
        return
    raise AssertionError("digest accepted an object it cannot describe")


def test_digest_mismatch_counts_as_failed():
    tally = run.Tally({"a": "1111", "b": "2222"})
    tally.add({"mode": "pass", "points": [
        {"key": "a", "digest": "1111", "problem": None},
        {"key": "b", "digest": "9999", "problem": None},
    ]})
    assert (tally.attempted, tally.failed) == (2, 1)
    tally.add({"mode": "pass", "points": [
        {"key": "a", "digest": "1111", "problem": None}]})
    assert (tally.attempted, tally.failed) == (4, 2)  # "b" went missing


# -- manifest ----------------------------------------------------------------------


def test_metric_names_follow_the_contract():
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in MANIFEST[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for spec in MANIFEST["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert sorted(w["name"] for w in MANIFEST["workloads"]) == sorted(run.WORKLOADS)


# -- compare verdicts ----------------------------------------------------------------


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1) == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "regression"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "regression"
    assert compare.verdict(base, list(base), "lower", 0.1) == "unchanged"
    wide = [8.0, 12.0, 9.0, 11.0, 10.0, 7.5, 12.5, 10.0, 9.5, 10.5]
    assert compare.verdict(base, wide, "lower", 0.1) == "unresolved"
    # Better median but only 8 of 10 pairs won: not an improvement.
    mixed = [v * 0.9 for v in base[:8]] + [v * 1.05 for v in base[8:]]
    assert compare.verdict(base, mixed, "lower", 0.2) == "unchanged"


# -- child smoke run ---------------------------------------------------------------------


def test_child_smoke_run_emits_every_manifest_metric():
    fig16 = Campaign(figures=("fig16",))
    plain = child.main(fig16, 0, "pass")
    traced = child.main(fig16, 0, "trace")
    assert plain["error"] is None and traced["error"] is None
    assert [p["key"] for p in plain["points"]] == ["fig16/Pt", "fig16/Pg"]
    assert [p["digest"] for p in plain["points"]] == [p["digest"] for p in traced["points"]]
    assert not any(p["problem"] for p in plain["points"])

    emitted = run.end_to_end([], [plain])
    assert set(emitted) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(value > 0 for value in emitted.values())
    emitted = run.per_layer([plain], traced, emitted["wall_s"])
    assert set(emitted) == {m["name"] for m in MANIFEST["per_layer"]}
    assert math.isclose(sum(emitted[f"{layer}.share"] for layer in layers.LAYERS)
                        + layers.shares(traced["layers"])[layers.OTHER], 1.0)
