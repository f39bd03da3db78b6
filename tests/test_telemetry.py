"""Tests for the fleet-telemetry layer (repro.obs.telemetry).

Two pieces, two contracts: the run ledger must round-trip every
lifecycle event and summarize a campaign correctly, and the progress
line must stay off stdout.  The capstone test proves telemetry is
observational: a real sweep's full-result digest is bit-identical with
the ledger and progress line enabled.
"""

import io
import json
import os
from dataclasses import replace

import pytest

from repro.core.config import Algorithm
from repro.experiments import ExperimentScale, ParallelSweepRunner, SweepJob
from repro.experiments.runner import run_step_sweep
from repro.experiments.scenarios import get_scenario
from repro.obs.telemetry import (
    LEDGER_EVENTS,
    LedgerError,
    LedgerWriter,
    ProgressLine,
    param_digest,
    read_ledger,
    render_status,
    summarize_ledger,
    traceback_digest,
    worker_id,
)
from repro.perf import result_digest


# -- run ledger --------------------------------------------------------------------


def test_ledger_round_trip_and_merge(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    with LedgerWriter(path) as writer:
        writer.emit("campaign-begin", scenario="t", jobs=1, jobs_config=1)
        writer.emit("queued", job="a", params="00")
        # Worker-origin events keep their stamps but get the parent's seq.
        writer.merge([
            {"event": "started", "job": "a", "worker": "w1", "t_wall": 5.0},
            {"event": "finished", "job": "a", "worker": "w1", "t_wall": 7.5,
             "wall_s": 2.5, "index_cache": {"hits": 1}},
        ])
        writer.emit("campaign-end", scenario="t", finished=1, failed=0,
                    wall_s=2.5)
    events = read_ledger(path)
    assert [e["event"] for e in events] == [
        "campaign-begin", "queued", "started", "finished", "campaign-end",
    ]
    assert [e["seq"] for e in events] == [0, 1, 2, 3, 4]
    finished = events[3]
    assert finished["worker"] == "w1" and finished["t_wall"] == 7.5


def test_ledger_rejects_unregistered_event_names(tmp_path):
    writer = LedgerWriter(str(tmp_path / "runs.jsonl"))
    with pytest.raises(LedgerError, match="unknown ledger event"):
        writer.emit("job-exploded", job="a")  # repro: allow[telemetry-event-registry] -- the rejection under test
    writer.close()


def test_read_ledger_rejects_foreign_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "other/1", "event": "queued"}\n')
    with pytest.raises(LedgerError, match="schema"):
        read_ledger(str(path))
    path.write_text("not json\n")
    with pytest.raises(LedgerError, match="not valid JSON"):
        read_ledger(str(path))


def test_summarize_ledger_states_and_eta():
    events = [
        {"event": "campaign-begin", "scenario": "fig", "t_wall": 0.0},
        {"event": "queued", "job": "a", "t_wall": 0.0},
        {"event": "queued", "job": "b", "t_wall": 0.0},
        {"event": "queued", "job": "c", "t_wall": 0.0},
        {"event": "started", "job": "a", "t_wall": 1.0},
        {"event": "finished", "job": "a", "worker": "w1", "t_wall": 4.0,
         "wall_s": 3.0, "index_cache": {"hits": 2, "misses": 1}},
        {"event": "started", "job": "b", "t_wall": 4.0},
    ]
    summary = summarize_ledger(events)
    assert summary.total_jobs == 3
    assert summary.finished == 1
    assert summary.running == 1
    assert summary.queued == 1
    assert summary.elapsed_s == 4.0
    assert summary.throughput_jobs_s == pytest.approx(0.25)
    assert summary.eta_s == pytest.approx(8.0)   # 2 remaining / 0.25
    assert summary.slowest == [("a", 3.0)]
    assert summary.per_worker == {"w1": 1}
    assert summary.index_cache == {"hits": 2, "misses": 1}
    assert summary.scenarios == ["fig"]
    text = render_status(summary)
    assert "3 total" in text and "1 finished" in text and "eta" in text
    # to_dict is the status --json payload and must round-trip as JSON.
    assert json.loads(json.dumps(summary.to_dict())) == summary.to_dict()


def test_digests_and_worker_id_are_stable():
    assert param_digest("m.f", (1, 2), {"b": 3}) == \
        param_digest("m.f", (1, 2), {"b": 3})
    assert param_digest("m.f", (1, 2), {}) != param_digest("m.f", (2, 1), {})
    assert traceback_digest("tb") == traceback_digest("tb")
    me = worker_id()
    assert me == worker_id() and f"pid{os.getpid()}" in me
    assert len(LEDGER_EVENTS) == 7


# -- progress line -----------------------------------------------------------------


def test_progress_line_writes_only_to_its_stream(capsys):
    stream = io.StringIO()
    line = ProgressLine(total=3, stream=stream)
    line.update("a", 0.5)
    line.update("b", 0.7, failed=True)
    line.close()
    text = stream.getvalue()
    assert "2/3 jobs" in text
    assert "1 failed" in text
    assert "last b" in text
    assert text.endswith("\n")
    captured = capsys.readouterr()
    assert captured.out == ""        # never stdout


def test_progress_line_disabled_is_a_no_op():
    stream = io.StringIO()
    line = ProgressLine(total=2, stream=stream, enabled=False)
    line.update("a", 0.1)
    line.close()
    assert stream.getvalue() == ""
    assert line.done == 1            # counting still works


# -- CLI ---------------------------------------------------------------------------


def _write_minimal_ledger(path):
    with LedgerWriter(path) as writer:
        writer.emit("campaign-begin", scenario="t", jobs=1, jobs_config=1)
        writer.emit("queued", job="a", params="00")
        writer.emit("started", job="a")
        writer.emit("finished", job="a", wall_s=1.0, params="00",
                    index_cache={}, fingerprint="00")
        writer.emit("campaign-end", scenario="t", finished=1, failed=0,
                    wall_s=1.0)


def test_status_cli_text_and_json(tmp_path, capsys):
    from repro.__main__ import main

    path = str(tmp_path / "runs.jsonl")
    _write_minimal_ledger(path)
    assert main(["status", path]) == 0
    assert "1 finished" in capsys.readouterr().out
    assert main(["status", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["finished"] == 1 and payload["total_jobs"] == 1


def test_status_cli_unreadable_ledger_exits_2(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["status", str(tmp_path / "missing.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_real_sweep_under_ledger_env_summarizes(tmp_path, monkeypatch, capsys):
    """A real figure run picks the ledger up from ``REPRO_LEDGER`` alone,
    and ``status --json`` summarizes a complete, failure-free campaign."""
    from repro.__main__ import main

    path = str(tmp_path / "runs.jsonl")
    monkeypatch.setenv("REPRO_LEDGER", path)
    assert main(["run", "fig3", "--quick"]) == 0
    assert main(["status", path]) == 0
    capsys.readouterr()
    assert main(["status", path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_jobs"] > 0
    assert summary["finished"] == summary["total_jobs"]
    assert summary["failed"] == 0
    assert summary["slowest"]
    assert summary["per_worker"]


# -- telemetry is observational ----------------------------------------------------


def _seeding_job(scale):
    spec = scale.seeding_datasets()[0]
    return SweepJob(
        key=spec.name,
        func=run_step_sweep,
        args=("beacon-d", Algorithm.FM_SEEDING,
              scale.seeding_workload(spec), scale),
        kwargs={"with_ideal": False},
    )


def test_fingerprint_identical_with_telemetry_enabled(tmp_path):
    """The acceptance criterion: a real sweep's full-result digest is
    bit-identical with the ledger and progress line on."""
    scale = replace(ExperimentScale.quick(),
                    genome_scale=0.03, read_scale=0.5, num_datasets=1)
    bare = ParallelSweepRunner(jobs=1).run([_seeding_job(scale)])
    instrumented_runner = ParallelSweepRunner(
        jobs=1,
        ledger_path=str(tmp_path / "runs.jsonl"),
        progress=True,
        progress_stream=io.StringIO(),
    )
    instrumented = instrumented_runner.run([_seeding_job(scale)],
                                           label="verify")
    assert result_digest(bare) == result_digest(instrumented)
    # ...and the telemetry actually recorded the run.
    events = read_ledger(str(tmp_path / "runs.jsonl"))
    finished = [e for e in events if e["event"] == "finished"]
    assert len(finished) == 1
    assert finished[0]["fingerprint"]
    assert finished[0]["wall_s"] > 0


def test_ledger_fingerprint_is_each_jobs_result_digest(tmp_path):
    """fig13's two jobs return chip profiles, not Reports; the ledger still
    tells them apart because ``fingerprint`` is the job's full-result
    digest, and a pooled run logs the same values as a serial one."""
    spec = get_scenario("fig13")
    scale = ExperimentScale.quick()
    logged = {}
    for jobs in (1, 2):
        path = str(tmp_path / f"jobs{jobs}.jsonl")
        runner = ParallelSweepRunner(jobs=jobs, ledger_path=path)
        results = runner.run(spec.build_jobs(scale), label=spec.name)
        logged[jobs] = {
            event["job"]: event["fingerprint"]
            for event in read_ledger(path) if event["event"] == "finished"
        }
        assert logged[jobs] == {
            key: result_digest(result) for key, result in results.items()
        }
    assert logged[1]["without"] != logged[1]["with"]
    assert logged[1] == logged[2]
