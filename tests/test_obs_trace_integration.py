"""End-to-end observability tests: traced figure campaigns, the trace CLI,
per-job trace collection, and the tracing-changes-nothing guarantee."""

import json
import os

import pytest

from repro.__main__ import main
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.parallel import SweepJob, trace_path_for
from repro.obs import TraceSession, load_trace, trace_layers
from repro.perf.harness import BENCH_FIGURES, _digest


def _run_traced(figure, **session_kwargs):
    session = TraceSession(**session_kwargs)
    with session:
        result = BENCH_FIGURES[figure](
            ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1)
        )
    return session, result


class TestTracedCampaign:
    def test_fig16_covers_all_four_layers(self):
        session, _ = _run_traced("fig16")
        rec = session.recorder
        assert rec.recorded > 1000
        assert rec.dropped == 0
        assert rec.layers() >= {"dram", "cxl", "ndp", "mem"}

    def test_trace_json_is_valid_trace_event_format(self, tmp_path):
        session, _ = _run_traced("fig16")
        path = str(tmp_path / "trace.json")
        session.save(path)
        with open(path) as handle:
            payload = json.load(handle)       # plain json-loadable
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ns"
        for event in events:
            assert "ph" in event and "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert "ts" in event and "dur" in event
                assert event["dur"] >= 0
            elif event["ph"] != "M":
                assert "ts" in event
        assert trace_layers(events) >= {"dram", "cxl", "ndp", "mem"}

    def test_category_filter_and_limit_apply_end_to_end(self):
        session, _ = _run_traced("fig16", categories={"dram"}, limit=100)
        rec = session.recorder
        assert rec.layers() == {"dram"}
        assert rec.recorded == 100
        assert rec.dropped > 0

    def test_metrics_sampler_collects_along_the_run(self, tmp_path):
        session, _ = _run_traced("fig16", metrics_interval=10_000)
        assert session.sampler.sample_count > 0
        metrics = tmp_path / "m.csv"
        session.save(str(tmp_path / "t.json"), metrics_path=str(metrics))
        header = metrics.read_text().splitlines()[0]
        assert header == "cycle,pid,path,key,value"


class TestTracingIsObservational:
    @pytest.mark.parametrize("figure", ["fig16", "fig13"])
    def test_results_bit_identical_with_tracing_on(self, figure):
        plain = BENCH_FIGURES[figure](
            ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1)
        )
        _session, traced = _run_traced(figure)
        assert _digest(plain) == _digest(traced)


class TestTraceCli:
    def test_trace_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.csv"
        rc = main(["trace", "fig16",
                   "--trace-out", str(trace),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        events = load_trace(str(trace))
        assert trace_layers(events) >= {"dram", "cxl", "ndp", "mem"}
        assert metrics.exists()
        out = capsys.readouterr().out
        assert "events recorded" in out
        assert "top components" in out

    def test_trace_filter_flag(self, tmp_path):
        trace = tmp_path / "t.json"
        rc = main(["trace", "fig16", "--trace-out", str(trace),
                   "--trace-filter", "cxl,dram", "--trace-limit", "1000"])
        assert rc == 0
        events = load_trace(str(trace))
        assert trace_layers(events) <= {"cxl", "dram"}
        assert sum(1 for e in events if e.get("ph") != "M") <= 1000

    def test_trace_requires_known_figure(self):
        with pytest.raises(SystemExit):
            main(["trace"])
        with pytest.raises(SystemExit):
            main(["trace", "nope"])

    def test_trace_rejects_unknown_category(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "fig16", "--trace-out",
                  str(tmp_path / "t.json"), "--trace-filter", "gpu"])

    def test_target_invalid_outside_trace(self):
        with pytest.raises(SystemExit):
            main(["fig16", "fig13"])


def _traced_sweep_point(scale):
    from repro.experiments import fig16_prealignment

    return fig16_prealignment.run(scale, runner=ParallelSweepRunner(jobs=1))


class TestPerJobTraces:
    def test_trace_dir_writes_one_valid_trace_per_job(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        runner = ParallelSweepRunner(jobs=1, trace_dir=trace_dir)
        jobs = [
            SweepJob("point/a", _traced_sweep_point, (ExperimentScale.quick(),)),
            SweepJob("point/b", _traced_sweep_point, (ExperimentScale.quick(),)),
        ]
        results = runner.run(jobs)
        assert list(results) == ["point/a", "point/b"]
        for job in jobs:
            path = trace_path_for(trace_dir, job.key)
            assert os.sep not in os.path.relpath(path, trace_dir)
            events = load_trace(path)
            assert trace_layers(events) >= {"dram", "cxl", "ndp", "mem"}

    def test_env_var_enables_trace_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "envtraces"))
        assert ParallelSweepRunner(jobs=1).trace_dir == str(
            tmp_path / "envtraces"
        )
        monkeypatch.delenv("REPRO_TRACE_DIR")
        assert ParallelSweepRunner(jobs=1).trace_dir is None
