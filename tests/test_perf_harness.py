"""Tests for the result digests (repro.perf) and the committed file.

``python -m repro bench`` simulates every figure once at quick scale and
writes the full-result digests to ``BENCH_results.json``.  The session's
``quick_wheel_results`` pass (conftest.py) is that same pass, so
:func:`test_committed_digests_match_the_quick_pass` checks the committed
file without simulating anything extra; the other tests use fake and
cheap figures so the suite stays fast.
"""

import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

from repro.core.metrics import Report
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.fig13_coalescing import Fig13Result
from repro.experiments.fig17_energy_breakdown import Fig17Result
from repro.obs import current_recorder
from repro.perf import BENCH_SCHEMA, result_digest, run_bench, simulate_figures
from repro.perf.harness import BENCH_FIGURES

BENCH_RESULTS = Path(__file__).resolve().parents[1] / "BENCH_results.json"


def _report(cycles: int, label: str = "r") -> Report:
    return Report(
        label=label, system="beacon-d", algorithm="fm_seeding", dataset="d1",
        runtime_cycles=cycles, tck_ns=0.75, energy_dram_nj=1.0,
        energy_comm_nj=2.0, energy_compute_nj=3.0, tasks_completed=4,
        mem_requests=5,
    )


# -- the full-result digest --------------------------------------------------------


def test_digest_is_exact_and_covers_every_field():
    assert result_digest(_report(10)) == result_digest(_report(10))
    assert result_digest(_report(10)) != result_digest(_report(11))
    assert result_digest({"x": [0.1]}) != \
        result_digest({"x": [math.nextafter(0.1, 1)]})
    assert result_digest({"x": 1}) != result_digest({"y": 1})
    assert result_digest([1, 2]) != result_digest([2, 1])


def test_fingerprint_is_exact():
    """A Report's digest is its fingerprint: equal Reports agree, and a
    change to any one field, however small, tells them apart."""
    base = _report(10)
    assert result_digest(base) == result_digest(_report(10))
    for name, value in (("label", "s"), ("runtime_cycles", 11),
                        ("tck_ns", math.nextafter(0.75, 1)),
                        ("energy_comm_nj", 2.5), ("mem_requests", 6),
                        ("extra", {"k": 1.0})):
        changed = dataclasses.replace(base, **{name: value})
        assert result_digest(changed) != result_digest(base), name


def test_digest_reaches_nested_reports():
    nested = {"a": [_report(10, "x")], "b": (_report(20, "y"),)}
    changed = {"a": [_report(10, "x")], "b": (_report(21, "y"),)}
    assert result_digest(nested) != result_digest(changed)


def test_digest_reads_numpy_floats_as_python_floats():
    np = pytest.importorskip("numpy")
    assert result_digest([np.float64(0.1)]) == result_digest([0.1])


@pytest.mark.parametrize("name, empty", [
    ("fig13", Fig13Result([], [], 0.0, 0.0)),
    ("fig17", Fig17Result({}, {}, {})),
])
def test_reportless_figures_have_content_digests(name, empty):
    """fig13 and fig17 publish no Report; the digest must still see
    their contents."""
    result = BENCH_FIGURES[name](ExperimentScale.quick(),
                                 runner=ParallelSweepRunner(jobs=1))
    assert result_digest(result) != result_digest(empty)


# -- the committed digests --------------------------------------------------------


def test_committed_digests_match_the_quick_pass(quick_wheel_results):
    committed = json.loads(BENCH_RESULTS.read_text())["figures"]
    assert set(committed) == set(BENCH_FIGURES) == set(quick_wheel_results)
    moved = sorted(
        name for name, result in quick_wheel_results.items()
        if result_digest(result) != committed[name]["digest"]
    )
    assert not moved, (
        f"simulated results moved for {moved}: a change that is meant to "
        "keep every result must not move these digests; a deliberate "
        "result change re-records them with `python -m repro bench`"
    )


# -- the digest writer -------------------------------------------------------------


def test_unknown_figure_rejected():
    with pytest.raises(ValueError, match="unknown bench figures"):
        simulate_figures(figures=["fig99"])


def test_bench_catalog_covers_every_figure_module():
    assert set(BENCH_FIGURES) == {
        "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "sec6g", "scalability", "mt-serving", "mt-saturation",
    }


def test_each_figure_runs_once_serially(monkeypatch, tmp_path):
    """One bare run per figure, all on one serial runner, under the
    caller's scheduler."""
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    calls = []

    def probe(scale, runner):
        calls.append(runner)
        assert os.environ["REPRO_SCHEDULER"] == "heap"
        assert current_recorder() is None
        return {"ok": True}

    monkeypatch.setitem(BENCH_FIGURES, "probe", probe)
    monkeypatch.setitem(BENCH_FIGURES, "probe2", probe)
    run_bench(figures=["probe", "probe2"],
              output=str(tmp_path / "BENCH_results.json"), progress=None)
    first, second = calls
    assert first is second
    assert (first.jobs, first.ledger_path, first.progress) == (1, None, False)


# -- end-to-end on one cheap figure ------------------------------------------------


def test_run_bench_writes_verified_baseline(tmp_path):
    output = tmp_path / "BENCH_results.json"
    payload = run_bench(figures=["fig13"], output=str(output),
                        progress=None)

    assert payload["schema"] == BENCH_SCHEMA == "repro-bench/4"
    assert payload["scale"] == "quick"
    # Deterministic by construction: no timestamps or timings.
    assert set(payload) == {"schema", "scale", "figures"}
    entry = payload["figures"]["fig13"]
    assert entry["verified_identical"] is True
    reference = BENCH_FIGURES["fig13"](ExperimentScale.quick(),
                                       runner=ParallelSweepRunner(jobs=1))
    assert entry["digest"] == result_digest(reference)

    first = output.read_text()
    assert json.loads(first) == payload
    run_bench(figures=["fig13"], output=str(output), progress=None)
    assert output.read_text() == first
