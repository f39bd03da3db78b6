"""Unit tests for the observability layer: recorders, sampling, and
export."""

import io
import json

import pytest

from repro.obs import (
    DEFAULT_EVENT_LIMIT,
    MetricsSampler,
    NullRecorder,
    TRACE_CATEGORIES,
    TraceRecorder,
    TraceSession,
    busiest_components,
    current_recorder,
    trace_layers,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatScope


class TestNullRecorder:
    def test_is_falsy(self):
        assert not NullRecorder()
        assert NullRecorder().enabled is False

    def test_wants_nothing(self):
        null = NullRecorder()
        for cat in TRACE_CATEGORIES:
            assert null.wants(cat) is False

    def test_all_record_calls_are_noops(self):
        null = NullRecorder()
        null.complete("dram", "RD", "a.b", 0, 10, pid=1, args={"x": 1})
        null.instant("cxl", "i", "a.b", 0)
        null.counter("ndp", "c", "a.b", 0, {"busy": 1})
        null.async_begin("ndp", "task", "a.b", 0, 7)
        null.async_end("ndp", "task", "a.b", 5, 7)
        null.register_root(0, "sys", StatScope("sys"))

    def test_engine_default_is_untraced(self):
        assert current_recorder() is None or isinstance(
            current_recorder(), TraceRecorder
        )
        engine = Engine()
        # Outside a session, new engines carry no tracer.
        if current_recorder() is None:
            assert engine.tracer is None


class TestTraceRecorder:
    def test_complete_span_shape(self):
        rec = TraceRecorder(tck_ns=1.25)
        rec.complete("dram", "RD", "sys.mc", 800, 80, pid=3, args={"bank": 2})
        (event,) = rec.events
        assert event["ph"] == "X"
        assert event["cat"] == "dram"
        assert event["pid"] == 3
        assert event["ts"] == pytest.approx(800 * 1.25 / 1000)
        assert event["dur"] == pytest.approx(80 * 1.25 / 1000)
        assert event["args"] == {"bank": 2}

    def test_category_filter(self):
        rec = TraceRecorder(categories={"cxl"})
        assert rec.wants("cxl") and not rec.wants("dram")
        rec.complete("dram", "RD", "sys.mc", 0, 10)
        rec.instant("cxl", "flit_flush", "sys.link", 5)
        assert [e["cat"] for e in rec.events] == ["cxl"]
        assert rec.dropped == 0  # filtered events are not "dropped"

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceRecorder(categories={"gpu"})

    def test_event_limit_counts_dropped(self):
        rec = TraceRecorder(limit=2)
        for i in range(5):
            rec.instant("dram", "e", "sys", i)
        assert rec.recorded == 2
        assert rec.dropped == 3

    def test_default_limit(self):
        assert TraceRecorder().limit == DEFAULT_EVENT_LIMIT

    def test_tids_interned_per_pid_and_path(self):
        rec = TraceRecorder()
        rec.instant("dram", "a", "sys.mc", 0, pid=0)
        rec.instant("dram", "b", "sys.mc", 1, pid=0)
        rec.instant("dram", "c", "sys.mc", 2, pid=1)
        tids = [e["tid"] for e in rec.events]
        assert tids[0] == tids[1] != tids[2]

    def test_async_pair_and_layers(self):
        rec = TraceRecorder()
        rec.async_begin("ndp", "task", "sys.ndp", 0, 42, pid=0)
        rec.async_end("ndp", "task", "sys.ndp", 100, 42, pid=0)
        begin, end = rec.events
        assert (begin["ph"], end["ph"]) == ("b", "e")
        assert begin["id"] == end["id"] == "0x2a"
        assert rec.layers() == {"ndp"}

    def test_metadata_names_processes_and_threads(self):
        rec = TraceRecorder()
        rec.register_root(0, "beacon-d", StatScope("beacon-d"))
        rec.complete("dram", "RD", "beacon-d.mc", 0, 1, pid=0)
        metadata = rec.metadata_events()
        names = {e["name"] for e in metadata}
        assert names == {"process_name", "thread_name"}
        assert rec.chrome_events() == metadata + rec.events


class TestMetricsSampler:
    def _recorder_with_scope(self):
        rec = TraceRecorder()
        scope = StatScope("sys")
        scope.add("issued", 3)
        scope.child("mc").add("row_hits", 2)
        rec.register_root(0, "sys", scope)
        return rec, scope

    def test_samples_once_per_interval(self):
        rec, scope = self._recorder_with_scope()
        sampler = MetricsSampler(interval_cycles=100)
        rec.metrics = sampler
        rec.instant("dram", "a", "sys", 0)      # first sample (cycle 0)
        rec.instant("dram", "b", "sys", 50)     # same interval: no sample
        cycles = {s.cycle for s in sampler.samples}
        assert cycles == {0}
        scope.add("issued", 1)
        rec.instant("dram", "c", "sys", 120)    # next interval
        assert {s.cycle for s in sampler.samples} == {0, 120}
        latest = [s for s in sampler.samples
                  if s.cycle == 120 and s.key == "issued"]
        assert latest[0].value == 4.0

    def test_key_filter(self):
        rec, _scope = self._recorder_with_scope()
        sampler = MetricsSampler(interval_cycles=10, keys={"row_hits"})
        rec.metrics = sampler
        rec.instant("dram", "a", "sys", 0)
        assert {s.key for s in sampler.samples} == {"row_hits"}
        assert sampler.samples[0].path == "sys.mc"

    def test_csv_round_trip(self):
        rec, _scope = self._recorder_with_scope()
        sampler = MetricsSampler(interval_cycles=10)
        rec.metrics = sampler
        rec.instant("dram", "a", "sys", 0)
        buffer = io.StringIO()
        rows = write_metrics_csv(sampler, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "cycle,pid,path,key,value"
        assert len(lines) == rows + 1 == sampler.sample_count + 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval_cycles=0)


class TestTraceSessionInstall:
    def test_session_installs_and_restores(self):
        assert current_recorder() is None
        with TraceSession() as session:
            assert current_recorder() is session.recorder
            engine = Engine()
            assert engine.tracer is session.recorder
        assert current_recorder() is None

    def test_sessions_nest(self):
        with TraceSession() as outer:
            with TraceSession() as inner:
                assert current_recorder() is inner.recorder
            assert current_recorder() is outer.recorder
        assert current_recorder() is None

    def test_save_without_sampler_rejects_metrics_path(self, tmp_path):
        with TraceSession() as session:
            pass
        with pytest.raises(ValueError, match="metrics sampler"):
            session.save(str(tmp_path / "t.json"),
                         metrics_path=str(tmp_path / "m.csv"))


class TestExport:
    def test_chrome_trace_file_shape(self, tmp_path):
        rec = TraceRecorder()
        rec.register_root(0, "sys", StatScope("sys"))
        rec.complete("dram", "RD", "sys.mc", 0, 8, pid=0)
        path = str(tmp_path / "trace.json")
        written = write_chrome_trace(rec, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["displayTimeUnit"] == "ns"
        assert len(payload["traceEvents"]) == written
        assert payload["otherData"]["recorded"] == 1
        assert trace_layers(payload["traceEvents"]) == {"dram"}

    def test_busiest_components_ranks_by_span_time(self):
        rec = TraceRecorder()
        rec.register_root(0, "sys", StatScope("sys"))
        rec.complete("dram", "RD", "sys.fast", 0, 10, pid=0)
        rec.complete("dram", "RD", "sys.slow", 0, 100, pid=0)
        rec.instant("dram", "noise", "sys.slow", 0, pid=0)
        (top, _), (second, _) = busiest_components(rec.chrome_events(), n=2)
        assert top.endswith("sys.slow") and second.endswith("sys.fast")
