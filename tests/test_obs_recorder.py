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
    TraceRecord,
    TraceRecorder,
    TraceSession,
    busiest_components,
    current_recorder,
    recorder_from_chrome,
    trace_layers,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.obs.export import chrome_events
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
    def test_complete_span_is_one_cycle_record(self):
        rec = TraceRecorder(tck_ns=1.25)
        rec.complete("dram", "RD", "sys.mc", 800, 80, pid=3, args={"bank": 2})
        (record,) = rec.events
        assert record == TraceRecord("X", "dram", "RD", 3, 1, 800, 80, None,
                                     {"bank": 2})

    def test_category_filter(self):
        rec = TraceRecorder(categories={"cxl"})
        assert rec.wants("cxl") and not rec.wants("dram")
        rec.complete("dram", "RD", "sys.mc", 0, 10)
        rec.instant("cxl", "flit_flush", "sys.link", 5)
        assert [e.cat for e in rec.events] == ["cxl"]
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
        tids = [e.tid for e in rec.events]
        assert tids[0] == tids[1] != tids[2]

    def test_async_pair_and_layers(self):
        rec = TraceRecorder()
        rec.async_begin("ndp", "task", "sys.ndp", 0, 42, pid=0)
        rec.async_end("ndp", "task", "sys.ndp", 100, 42, pid=0)
        begin, end = rec.events
        assert (begin.ph, end.ph) == ("b", "e")
        assert begin.event_id == end.event_id == 42
        assert rec.layers() == {"ndp"}

    def test_names_processes_and_threads(self):
        rec = TraceRecorder()
        rec.register_root(0, "beacon-d", StatScope("beacon-d"))
        rec.complete("dram", "RD", "beacon-d.mc", 0, 1, pid=0)
        assert rec.process_names == {0: "beacon-d"}
        assert rec.thread_names() == {(0, 1): "beacon-d.mc"}


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
        (top, _), (second, _) = busiest_components(rec, n=2)
        assert top.endswith("sys.slow") and second.endswith("sys.fast")


def _every_phase(rec):
    """One record of each phase, with ids past 32 bits and cycle values
    whose microsecond float is inexact (7 * 1.25 / 1000 = 0.00875)."""
    rec.register_root(3, "sys", StatScope("sys"))
    rec.complete("dram", "RD", "sys.mc", 7, 13, pid=3,
                 args={"req": 2**40 + 1, "wait": 3})
    rec.complete("mem", "dedicate", "sys.mgr", 10**9 + 7, 0, pid=3)
    rec.instant("cxl", "flit_flush", "sys.pk", 999_999_999_999, pid=3,
                args={"reqs": [1, 2], "waits": [0, 5]})
    rec.instant("cxl", "host_detour", "sys.host", 3, pid=4)
    rec.counter("ndp", "pes_busy", "sys.pes", 123_456_789,
                {"busy": 3, "total": 8}, pid=3)
    rec.async_begin("req", "mem_req", "sys.pool", 1, 2**32, pid=3,
                    args={"task": None, "size": 64})
    rec.async_end("req", "mem_req", "sys.pool", 2**45 + 3, 2**63 - 1,
                  pid=3)
    rec.note_runtime(3, 2**45 + 3)
    return rec


class TestChromeRoundTrip:
    def test_records_survive_the_chrome_format(self):
        rec = _every_phase(TraceRecorder(tck_ns=1.25))
        assert {record.ph for record in rec.events} == set("XiCbe")
        back = recorder_from_chrome(list(chrome_events(rec)), tck_ns=1.25)
        assert back.events == rec.events
        assert back.process_names == rec.process_names
        assert back.thread_ids == rec.thread_ids

    def test_chrome_dicts_carry_microseconds_and_hex_ids(self):
        rec = _every_phase(TraceRecorder(tck_ns=1.25))
        events = list(chrome_events(rec))
        assert [e["ph"] for e in events[:6]] == ["M"] * 6
        span, _, flush, _, counter, begin, end = events[6:]
        assert span["ts"] == 7 * 1.25 / 1000 and span["dur"] == 13 * 1.25 / 1000
        assert flush["s"] == "t"
        assert counter["name"] == "sys.pes.pes_busy" and counter["tid"] == 0
        assert (begin["id"], end["id"]) == ("0x100000000", "0x7fffffffffffffff")
        assert "args" not in end

    def test_saved_file_round_trips(self, tmp_path):
        rec = _every_phase(TraceRecorder(tck_ns=1.25))
        path = str(tmp_path / "t.json")
        written = write_chrome_trace(rec, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert written == len(payload["traceEvents"])
        assert payload["otherData"]["runtimes_cycles"] == {"3": 2**45 + 3}
        back = recorder_from_chrome(payload["traceEvents"],
                                    tck_ns=payload["otherData"]["tck_ns"])
        assert back.events == rec.events

    def test_streamed_file_equals_one_json_dump(self, tmp_path, monkeypatch):
        import repro.obs.export as export

        monkeypatch.setattr(export, "_WRITE_CHUNK", 2)
        path = tmp_path / "t.json"
        for rec in (TraceRecorder(), _every_phase(TraceRecorder())):
            write_chrome_trace(rec, str(path))
            payload = json.loads(path.read_text())
            assert path.read_text() == json.dumps(payload) + "\n"
