"""Tests for the result verifier (repro.perf).

``python -m repro bench`` runs every figure twice at quick scale — the
production path and the serial/uncached/heap reference with every
observer on — and asserts the two full-result digests match.  These tests
exercise the verifier on fake and cheap figures so the suite stays fast.
"""

import dataclasses
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
    result_digest,
    run_bench,
)
from repro.perf.harness import BENCH_FIGURES


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
    assert entry["digest"] == result_digest(reference)

    first = output.read_text()
    assert json.loads(first) == payload
    run_bench(figures=["fig13"], jobs=2, output=str(output), progress=None)
    assert output.read_text() == first
