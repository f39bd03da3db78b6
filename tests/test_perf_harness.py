"""Tests for the result verifier (repro.perf).

``python -m repro bench`` runs every figure twice at quick scale — the
production path and the serial/uncached/heap reference with every
observer on — and asserts the two full-result digests match.  These tests
exercise the verifier on fake and cheap figures so the suite stays fast.
"""

import json
import math
import os

import pytest

from repro.core.metrics import Report
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.fig13_coalescing import Fig13Result
from repro.experiments.fig17_energy_breakdown import Fig17Result
from repro.obs import current_recorder
from repro.perf import (
    BENCH_SCHEMA,
    BenchMismatchError,
    bench_figures,
    fingerprint,
    run_bench,
)
from repro.perf.harness import BENCH_FIGURES, _digest


def _report(cycles: int, label: str = "r") -> Report:
    return Report(
        label=label, system="beacon-d", algorithm="fm_seeding", dataset="d1",
        runtime_cycles=cycles, tck_ns=0.75, energy_dram_nj=1.0,
        energy_comm_nj=2.0, energy_compute_nj=3.0, tasks_completed=4,
        mem_requests=5,
    )


# -- fingerprinting ----------------------------------------------------------------


def test_fingerprint_reaches_nested_reports():
    nested = {"a": [_report(10, "x")], "b": (_report(20, "y"),)}
    prints = fingerprint(nested)
    assert [p[0] for p in prints] == ["x", "y"]
    assert [p[4] for p in prints] == [10, 20]


def test_fingerprint_is_exact():
    assert fingerprint(_report(10)) == fingerprint(_report(10))
    assert fingerprint(_report(10)) != fingerprint(_report(11))


def test_fingerprint_of_reportless_object_is_empty():
    assert fingerprint({"numbers": [1, 2, 3]}) == []


# -- the full-result digest --------------------------------------------------------


def test_digest_is_exact_and_covers_every_field():
    assert _digest(_report(10)) == _digest(_report(10))
    assert _digest(_report(10)) != _digest(_report(11))
    assert _digest({"x": [0.1]}) != _digest({"x": [math.nextafter(0.1, 1)]})
    assert _digest({"x": 1}) != _digest({"y": 1})
    assert _digest([1, 2]) != _digest([2, 1])


def test_digest_reads_numpy_floats_as_python_floats():
    np = pytest.importorskip("numpy")
    assert _digest([np.float64(0.1)]) == _digest([0.1])


@pytest.mark.parametrize("name, empty", [
    ("fig13", Fig13Result([], [], 0.0, 0.0)),
    ("fig17", Fig17Result({}, {}, {})),
])
def test_reportless_figures_have_content_digests(name, empty):
    """fig13 and fig17 publish no Report, so a fingerprint comparison of
    them is vacuous; the digest must still see their contents."""
    result = BENCH_FIGURES[name](ExperimentScale.quick(),
                                 runner=ParallelSweepRunner(jobs=1))
    assert fingerprint(result) == fingerprint(empty) == []
    assert _digest(result) != _digest(empty)


# -- verifier mechanics ------------------------------------------------------------


def test_unknown_figure_rejected():
    with pytest.raises(ValueError, match="unknown bench figures"):
        bench_figures(figures=["fig99"])


def test_bench_catalog_covers_every_figure_module():
    assert set(BENCH_FIGURES) == {
        "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "sec6g", "scalability", "mt-serving", "mt-saturation",
    }


def test_mismatch_error_is_an_assertion():
    # So plain ``pytest`` / CI treats a divergence as a test failure.
    assert issubclass(BenchMismatchError, AssertionError)


def test_divergence_from_reference_raises(monkeypatch):
    """A result that changes on the uncached path must fail the bench,
    even when it carries no Report."""

    def fragile(scale, runner):
        return {"cycles": 2 if os.environ.get("REPRO_DISABLE_INDEX_CACHE")
                else 1}

    monkeypatch.setitem(BENCH_FIGURES, "fragile", fragile)
    with pytest.raises(BenchMismatchError, match="fragile"):
        bench_figures(figures=["fragile"], jobs=1)


def test_each_figure_runs_twice_production_then_reference(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    monkeypatch.setenv("REPRO_DISABLE_INDEX_CACHE", "1")
    calls = []

    def probe(scale, runner):
        recorder = current_recorder()
        calls.append({
            "scheduler": os.environ.get("REPRO_SCHEDULER"),
            "index_cache_off": os.environ.get("REPRO_DISABLE_INDEX_CACHE"),
            "jobs": runner.jobs,
            "traced": recorder is not None,
            "profiled": bool(recorder and recorder.listeners),
            "sampled": bool(recorder and recorder.metrics is not None),
            "ledger": runner.ledger_path is not None,
            "progress": runner.progress,
        })
        return {"ok": True}

    monkeypatch.setitem(BENCH_FIGURES, "probe", probe)
    bench_figures(figures=["probe"], jobs=2)
    production, reference = calls
    assert production == {
        "scheduler": "wheel", "index_cache_off": None,
        "jobs": 2, "traced": False, "profiled": False, "sampled": False,
        "ledger": False, "progress": False,
    }
    assert reference == {
        "scheduler": "heap", "index_cache_off": "1",
        "jobs": 1, "traced": True, "profiled": True, "sampled": True,
        "ledger": True, "progress": True,
    }
    # The caller's environment is restored afterwards.
    assert os.environ["REPRO_SCHEDULER"] == "heap"
    assert os.environ["REPRO_DISABLE_INDEX_CACHE"] == "1"
    assert current_recorder() is None


def test_bench_cli_exits_nonzero_on_mismatch(monkeypatch, tmp_path, capsys):
    from repro.__main__ import main

    def fragile(scale, runner):
        return [os.environ.get("REPRO_SCHEDULER")]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("repro.perf.harness.BENCH_FIGURES",
                        {"fragile": fragile})
    assert main(["bench"]) == 1
    assert "fragile" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_results.json").exists()


# -- end-to-end on one cheap figure ------------------------------------------------


def test_run_bench_writes_verified_baseline(tmp_path):
    output = tmp_path / "BENCH_results.json"
    payload = run_bench(figures=["fig13"], jobs=1, output=str(output),
                        progress=None)

    assert payload["schema"] == BENCH_SCHEMA == "repro-bench/4"
    assert payload["scale"] == "quick"
    # Deterministic by construction: no timestamps, timings or job count.
    assert set(payload) == {"schema", "scale", "figures"}
    entry = payload["figures"]["fig13"]
    assert entry["verified_identical"] is True
    reference = BENCH_FIGURES["fig13"](ExperimentScale.quick(),
                                       runner=ParallelSweepRunner(jobs=1))
    assert entry["digest"] == _digest(reference)

    first = output.read_text()
    assert json.loads(first) == payload
    run_bench(figures=["fig13"], jobs=2, output=str(output), progress=None)
    assert output.read_text() == first
