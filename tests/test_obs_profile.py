"""Latency-attribution tests: span stitching, the exact-sum guarantee,
ProfileReport/flamegraph round trips, the profile CLI, per-job profiles,
and the cross-check against the simulator's own counters."""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core import Algorithm, BeaconConfig, BeaconD, OptimizationFlags
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.parallel import SweepJob, profile_path_for
from repro.genomics.workloads import SEEDING_DATASETS, make_seeding_workload
from repro.obs import (
    PROFILE_SCHEMA,
    LatencyProfiler,
    ProfileReport,
    SpanStitcher,
    TraceFormatError,
    TraceRecorder,
    TraceSession,
    busiest_components,
    diff_reports,
    load_trace,
    profile_trace_file,
    write_flamegraph,
)
from repro.obs.profile import build_report
from repro.experiments.scenarios import resolve_scenario
from repro.perf import result_digest

TCK = 1.25


# -- hand-built feed helpers -------------------------------------------------------


def _feed_request_story(recorder, pid=1, rid=7, begin=100, enq=160,
                        svc_start=200, svc=30, end=400):
    """One request: entry -> link hop -> queue -> DRAM -> response."""
    recorder.async_begin("req", "mem_req", "sys.pool", begin, rid, pid=pid,
                         args={"task": 3, "src": "host", "dst": "d0.0",
                               "kind": "read", "size": 64})
    recorder.complete("cxl", "xfer", "sys.pool.fabric.host->sw0", begin, 16,
                      pid=pid,
                      args={"role": "cxl_link", "lat": 12, "wait": 2,
                            "reqs": [rid]})
    recorder.complete("dram", "RD", "sys.pool.d0.0.mc", svc_start, svc,
                      pid=pid,
                      args={"row_state": "hit", "req": rid, "task": 3,
                            "wait": svc_start - enq, "queue_depth": 4})
    recorder.async_end("req", "mem_req", "sys.pool", end, rid, pid=pid)


class TestSpanStitching:
    def _stitch(self, order=None):
        recorder = TraceRecorder(tck_ns=TCK)
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        _feed_request_story(recorder)
        if order is not None:
            events = [recorder.events[i] for i in order]
            fresh = SpanStitcher(tck_ns=TCK)
            fresh.feed_many(events)
            return fresh.finalize()
        return stitcher.finalize()

    def test_exact_phase_decomposition(self):
        run = self._stitch()
        assert run.unmatched_requests == 0
        (req,) = run.requests
        assert req.complete and not req.clamped
        assert req.total_cycles == 300
        # request leg 60: hop serialize 16 + propagate 12 + wait 2, rest other
        assert req.phases["req_cxl_serialize"] == 16
        assert req.phases["req_cxl_propagate"] == 12
        assert req.phases["req_link_wait"] == 2
        assert req.phases["req_other"] == 30
        assert req.phases["mc_queue"] == 40
        assert req.phases["dram_row_hit"] == 30
        assert req.phases["resp_other"] == 170
        assert sum(req.phases.values()) == req.total_cycles

    def test_out_of_order_feed_is_equivalent(self):
        in_order = self._stitch()
        reversed_feed = self._stitch(order=[3, 2, 1, 0])
        assert [r.phases for r in in_order.requests] == [
            r.phases for r in reversed_feed.requests
        ]

    def test_unmatched_request_is_counted_not_fatal(self):
        recorder = TraceRecorder(tck_ns=TCK)
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        recorder.async_begin("req", "mem_req", "p", 10, 99, pid=1)
        _feed_request_story(recorder, rid=7)
        run = stitcher.finalize()
        assert run.unmatched_requests == 1
        assert len(run.requests) == 1

    def test_request_without_interior_stays_summed(self):
        # Routed atomics never visit a controller: no dram span.
        recorder = TraceRecorder(tck_ns=TCK)
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        recorder.async_begin("req", "mem_req", "p", 0, 5, pid=1)
        recorder.complete("cxl", "xfer", "p.fabric.l", 0, 10, pid=1,
                          args={"role": "cxl_link", "lat": 12, "wait": 0,
                                "reqs": [5]})
        recorder.async_end("req", "mem_req", "p", 50, 5, pid=1)
        (req,) = stitcher.finalize().requests
        assert not req.complete
        assert req.phases["fab_cxl_serialize"] == 10
        assert req.phases["fab_cxl_propagate"] == 12
        assert req.phases["unattributed"] == 28
        assert sum(req.phases.values()) == 50

    def test_task_phase_split(self):
        recorder = TraceRecorder(tck_ns=TCK)
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        recorder.async_begin("ndp", "task", "m", 0, 1, pid=1,
                             args={"algorithm": "fm", "node": "d0"})
        recorder.instant("ndp", "ready", "m.sched", 0, pid=1,
                         args={"task": 1, "queue": 1})
        recorder.complete("ndp", "compute", "m.pes", 5, 10, pid=1,
                          args={"task": 1})
        recorder.instant("ndp", "stall", "m", 15, pid=1, args={"task": 1})
        recorder.instant("ndp", "ready", "m.sched", 30, pid=1,
                         args={"task": 1, "queue": 1})
        recorder.complete("ndp", "compute", "m.pes", 32, 8, pid=1,
                          args={"task": 1})
        recorder.async_end("ndp", "task", "m", 40, 1, pid=1)
        (task,) = stitcher.finalize().tasks
        assert task.phases == {"compute": 18, "mem_stall": 15, "pe_wait": 7}
        assert sum(task.phases.values()) == task.total_cycles == 40


_ROLES = st.sampled_from(["cxl_link", "switch_bus", "host_bus", "ddr_bus"])


class TestExactSumProperty:
    @given(
        begin=st.integers(0, 10**6),
        g_req=st.integers(0, 2000),
        g_queue=st.integers(0, 2000),
        svc=st.integers(1, 500),
        g_resp=st.integers(0, 2000),
        row_state=st.sampled_from(["hit", "miss", "conflict"]),
        hops=st.lists(
            st.tuples(_ROLES, st.integers(0, 800), st.integers(0, 300),
                      st.integers(0, 300), st.booleans()),
            max_size=6,
        ),
        packer_waits=st.lists(st.integers(0, 400), max_size=3),
    )
    def test_request_phases_sum_to_total(self, begin, g_req, g_queue, svc,
                                         g_resp, row_state, hops,
                                         packer_waits):
        """Decomposition sums to end-to-end latency even when measured
        sub-components overshoot their legs (clamping)."""
        enq = begin + g_req
        svc_start = enq + g_queue
        end = svc_start + svc + g_resp
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder = TraceRecorder(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        # deliberately out of order: end first, interior, begin last
        recorder.async_end("req", "mem_req", "p", end, 1, pid=1)
        recorder.complete("dram", "RD", "p.mc", svc_start, svc, pid=1,
                          args={"row_state": row_state, "req": 1,
                                "wait": g_queue, "queue_depth": 0})
        for role, serialize, lat, wait, on_response_leg in hops:
            start = svc_start + svc if on_response_leg else begin
            recorder.complete("cxl", "xfer", "p.l", start, serialize, pid=1,
                              args={"role": role, "lat": lat, "wait": wait,
                                    "reqs": [1]})
        for wait in packer_waits:
            recorder.instant("cxl", "flit_flush", "p.pk", begin, pid=1,
                             args={"reqs": [1], "waits": [wait]})
        recorder.async_begin("req", "mem_req", "p", begin, 1, pid=1)
        (req,) = stitcher.finalize().requests
        assert sum(req.phases.values()) == req.total_cycles == end - begin
        assert all(cycles >= 0 for cycles in req.phases.values())

    @given(
        total=st.integers(0, 10**5),
        computes=st.lists(
            st.tuples(st.integers(0, 10**5), st.integers(0, 10**5)),
            max_size=5,
        ),
        stalls=st.lists(st.integers(0, 10**5), max_size=5),
        readies=st.lists(st.integers(0, 10**5), max_size=5),
    )
    def test_task_phases_sum_to_total(self, total, computes, stalls, readies):
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder = TraceRecorder(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        recorder.async_begin("ndp", "task", "m", 0, 1, pid=1)
        recorder.async_end("ndp", "task", "m", total, 1, pid=1)
        for offset, dur in computes:
            recorder.complete("ndp", "compute", "m.pes", offset, dur, pid=1,
                              args={"task": 1})
        for offset in stalls:
            recorder.instant("ndp", "stall", "m", offset, pid=1,
                             args={"task": 1})
        for offset in readies:
            recorder.instant("ndp", "ready", "m.sched", offset, pid=1,
                             args={"task": 1})
        (task,) = stitcher.finalize().tasks
        assert sum(task.phases.values()) == task.total_cycles == total
        assert all(cycles >= 0 for cycles in task.phases.values())


# -- report artifact ---------------------------------------------------------------


def _synthetic_report(mean_latency=450.0, queue=1000):
    recorder = TraceRecorder(tck_ns=TCK)
    profiler = LatencyProfiler(tck_ns=TCK).attach(recorder)
    _feed_request_story(recorder)
    recorder.register_root(1, "sys", None)
    recorder.note_runtime(1, 500)
    report = profiler.report(figure="synthetic", scale="unit")
    # nudge fields for diff tests
    system = report.systems["sys"]
    system["requests"]["mean_latency_cycles"] = mean_latency
    system["requests"]["phases_cycles"]["mc_queue"] = queue
    return report


class TestProfileReportArtifact:
    def test_schema_round_trip(self, tmp_path):
        report = _synthetic_report()
        assert report.schema == PROFILE_SCHEMA
        path = str(tmp_path / "p.json")
        report.save(path)
        again = ProfileReport.load(path)
        assert again.to_dict() == report.to_dict()

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="schema"):
            ProfileReport.load(str(path))

    def test_report_is_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _synthetic_report().save(str(a))
        _synthetic_report().save(str(b))
        assert a.read_text() == b.read_text()

    def test_flamegraph_collapsed_stack_format(self, tmp_path):
        report = _synthetic_report()
        path = tmp_path / "fg.folded"
        lines_written = write_flamegraph(report, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == lines_written > 0
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert len(stack.split(";")) == 3  # layer;component;phase
        assert any(line.startswith("request;sys;mc_queue ") for line in lines)

    def test_diff_ranks_largest_delta_first(self):
        a = _synthetic_report(mean_latency=450.0, queue=1000)
        b = _synthetic_report(mean_latency=460.0, queue=5000)
        deltas = diff_reports(a, b)
        assert deltas[0].system == "sys"
        assert deltas[0].metric == "request_phase.mc_queue"
        assert deltas[0].delta == 4000
        assert deltas[0].b == 5000


# -- export-layer satellites -------------------------------------------------------


class TestExportFixes:
    def test_load_trace_clear_error_on_truncated_file(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"traceEvents": [{"ph": "i"')  # killed mid-write
        with pytest.raises(TraceFormatError, match="partial.json"):
            load_trace(str(path))

    def test_load_trace_clear_error_on_wrong_shape(self, tmp_path):
        path = tmp_path / "notatrace.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(TraceFormatError, match="traceEvents"):
            load_trace(str(path))

    def test_busiest_components_counts_async_spans(self):
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 5,
             "args": {"name": "sys.module"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 6,
             "args": {"name": "sys.pes"}},
            # async task lifetime on tid 5: 100 us
            {"ph": "b", "cat": "ndp", "name": "task", "id": "0x1",
             "pid": 1, "tid": 5, "ts": 0.0},
            {"ph": "e", "cat": "ndp", "name": "task", "id": "0x1",
             "pid": 1, "tid": 5, "ts": 100.0},
            # duration span on tid 6: 40 us
            {"ph": "X", "cat": "ndp", "name": "compute",
             "pid": 1, "tid": 6, "ts": 0.0, "dur": 40.0},
            # unmatched halves must not crash or count
            {"ph": "e", "cat": "ndp", "name": "task", "id": "0x9",
             "pid": 1, "tid": 5, "ts": 7.0},
            {"ph": "b", "cat": "ndp", "name": "task", "id": "0x8",
             "pid": 1, "tid": 5, "ts": 3.0},
        ]
        ranked = busiest_components(events)
        assert ranked[0] == ("pid1:sys.module", 100.0)
        assert ranked[1] == ("pid1:sys.pes", 40.0)

    def test_truncation_warns_and_flags_export(self, tmp_path):
        session = TraceSession(limit=2)
        for cycle in range(5):
            session.recorder.instant("ndp", "tick", "p", cycle, pid=1)
        path = str(tmp_path / "t.json")
        with pytest.warns(RuntimeWarning, match="raise --trace-limit"):
            session.save(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["otherData"]["truncated"] is True
        assert payload["otherData"]["dropped"] == 3

    def test_untruncated_export_does_not_warn(self, tmp_path):
        session = TraceSession(limit=10)
        session.recorder.instant("ndp", "tick", "p", 1, pid=1)
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            session.save(str(tmp_path / "t.json"))
        with open(tmp_path / "t.json") as handle:
            assert json.load(handle)["otherData"]["truncated"] is False


class TestListenerSeesPastStorageCap:
    def test_profiler_complete_with_zero_storage(self):
        recorder = TraceRecorder(tck_ns=TCK, limit=0)
        stitcher = SpanStitcher(tck_ns=TCK)
        recorder.subscribe(stitcher.feed)
        _feed_request_story(recorder)
        assert recorder.recorded == 0
        assert recorder.dropped == 4
        run = stitcher.finalize()
        assert len(run.requests) == 1
        assert run.requests[0].complete


# -- live profiling of real figure runs --------------------------------------------


@pytest.fixture(scope="module")
def fig16_live_profile():
    from repro.experiments import fig16_prealignment

    session = TraceSession(limit=0, profile=True)
    with session:
        result = fig16_prealignment.run(
            ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1)
        )
    return session, result


class TestLiveProfiling:
    def test_every_stitched_request_sums_exactly(self, fig16_live_profile):
        session, _ = fig16_live_profile
        run = session.profiler.stitcher.finalize()
        assert len(run.requests) > 100
        assert run.unmatched_requests == 0
        for request in run.requests:
            assert sum(request.phases.values()) == request.total_cycles
        for task in run.tasks:
            assert sum(task.phases.values()) == task.total_cycles

    def test_report_structure(self, fig16_live_profile):
        session, _ = fig16_live_profile
        report = session.profile_report(figure="fig16", scale="quick")
        assert not report.truncated
        assert set(report.systems) >= {"beacon-d", "beacon-s"}
        for system in report.systems.values():
            requests = system["requests"]
            assert requests["stitched"] > 0
            assert (
                sum(requests["phases_cycles"].values())
                == requests["total_latency_cycles"]
            )
            assert system["critical_path"]["bound"] != "idle"
            for check in system["littles_law"].values():
                assert check["ok"], check

    def test_profiling_is_observational(self, fig16_live_profile):
        from repro.perf.harness import BENCH_FIGURES

        _, profiled_result = fig16_live_profile
        plain = BENCH_FIGURES["fig16"](
            ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1)
        )
        assert result_digest(plain) == result_digest(profiled_result)

    def test_post_hoc_trace_profile_agrees_with_live(self, fig16_live_profile,
                                                     tmp_path):
        from repro.experiments import fig16_prealignment

        session = TraceSession(limit=None, profile=True)
        with session:
            fig16_prealignment.run(
                ExperimentScale.quick(), runner=ParallelSweepRunner(jobs=1)
            )
        path = str(tmp_path / "t.json")
        session.save(path)
        live = session.profile_report(figure="fig16")
        posthoc = profile_trace_file(path, figure="fig16")
        assert posthoc.source == "events"
        assert not posthoc.truncated
        for label, system in live.systems.items():
            assert (
                posthoc.systems[label]["requests"]["phases_cycles"]
                == system["requests"]["phases_cycles"]
            )


# -- cross-check against the simulator's counters ---------------------------------


@pytest.fixture(scope="module")
def crosschecked_run():
    session = TraceSession(limit=0, profile=True)
    with session:
        system = BeaconD(
            config=BeaconConfig().scaled(16),
            flags=OptimizationFlags.all_for("beacon-d", Algorithm.FM_SEEDING),
        )
        workload = make_seeding_workload(SEEDING_DATASETS[0], scale=0.06,
                                         read_scale=2.0)
        system.run_fm_seeding(workload)
    report = session.profile_report(figure="crosscheck")
    stitched = session.profiler.stitcher.finalize()
    return system, report, stitched


class TestDiagnosticsCrossCheck:
    """The trace-driven profiler and the simulator's own counters
    (``StatScope`` link counters, DIMM row tallies, the PE pools) measure
    the same run through independent instruments; they must agree."""

    def test_link_utilization_agrees(self, crosschecked_run):
        system, _report, stitched = crosschecked_run
        pid = system.engine.trace_id
        runtime = stitched.runtimes[pid]
        end = system.engine.now
        busy_by_path = {
            path: cycles
            for (busy_pid, path), cycles in stitched.busy_cycles.items()
            if busy_pid == pid
        }
        compared = 0
        for scope in system.pool.fabric.stats.walk():
            if "busy_cycles" not in scope.counters:
                continue
            name = scope.path.split("fabric.")[-1]
            matches = [
                cycles for path, cycles in busy_by_path.items()
                if path.endswith(name)
            ]
            if not matches:
                continue
            compared += 1
            counted = min(1.0, scope.counters["busy_cycles"] / end)
            traced = min(1.0, matches[0] / runtime)
            assert traced == pytest.approx(counted, abs=0.01)
        assert compared >= 3

    def test_row_hit_rate_agrees(self, crosschecked_run):
        system, report, _stitched = crosschecked_run
        states = report.systems["beacon-d"]["requests"]["row_states"]
        total = sum(states.values())
        assert total > 0
        profiler_rate = states.get("hit", 0) / total
        hits = sum(dimm.total_row_hits for dimm in system.pool.dimms)
        activations = sum(
            dimm.total_activations for dimm in system.pool.dimms
        )
        assert hits + activations > 0
        assert profiler_rate == pytest.approx(
            hits / (hits + activations), abs=0.02
        )

    def test_pe_utilization_agrees(self, crosschecked_run):
        system, report, _stitched = crosschecked_run
        end = system.engine.now
        pe_utils = report.systems["beacon-d"]["pe_utilization"]
        compared = 0
        for module in system.ndp_modules:
            traced = pe_utils.get(module.pes.path)
            if traced is None:
                continue
            compared += 1
            assert traced == pytest.approx(
                module.pes.utilization(end), abs=0.02
            )
        assert compared == len(system.ndp_modules)


# -- CLI ---------------------------------------------------------------------------


class TestProfileCli:
    def test_profile_verb_accepts_module_style_alias(self, tmp_path, capsys):
        profile_out = str(tmp_path / "p.json")
        flame_out = str(tmp_path / "p.folded")
        rc = main(["profile", "fig16_prealignment",
                   "--profile-out", profile_out, "--flame-out", flame_out])
        assert rc == 0
        report = ProfileReport.load(profile_out)
        assert report.figure == "fig16"
        assert report.schema == PROFILE_SCHEMA
        assert report.systems, "no systems profiled"
        for system in report.systems.values():
            requests = system["requests"]
            assert (
                sum(requests["phases_cycles"].values())
                == requests["total_latency_cycles"]
            )
        assert os.path.getsize(flame_out) > 0
        out = capsys.readouterr().out
        assert "bound:" in out
        assert "collapsed stacks" in out

    def test_profile_diff_cli(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        _synthetic_report(queue=1000).save(a)
        _synthetic_report(queue=6000).save(b)
        rc = main(["profile", "--diff", a, b])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "request_phase.mc_queue" in l]
        assert lines and "+5000" in lines[0]

    def test_profile_requires_figure_or_diff(self):
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["profile", "nope"])

    def test_resolve_figure_aliases(self):
        # run, trace and profile all resolve their target this way.
        assert resolve_scenario("fig16") == "fig16"
        assert resolve_scenario("fig16_prealignment") == "fig16"
        assert resolve_scenario("fig12-fm-seeding") == "fig12"
        assert resolve_scenario("nope") is None

    def test_profile_diff_missing_file_is_a_clean_error(self, tmp_path,
                                                       capsys):
        a = str(tmp_path / "a.json")
        _synthetic_report(queue=1000).save(a)
        assert main(["profile", "--diff", a, str(tmp_path / "gone.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "gone.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["profile", "fig3", "--diff", "a.json", "b.json"], "--diff"),
        (["profile", "--diff", "a.json", "b.json", "--delays"], "--delays"),
    ])
    def test_diff_excludes_figure_and_delays(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        ["--diff", "a.json", "b.json"],
        ["fig16", "--delays"],
    ], ids=["diff", "delays"])
    @pytest.mark.parametrize("flag", ["--profile-out", "--flame-out"])
    def test_modes_that_write_nothing_reject_output_paths(
            self, mode, flag, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", *mode, flag, str(out)])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_default_outputs_land_in_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "fig16"]) == 0
        assert ProfileReport.load("profile.json").figure == "fig16"
        assert os.path.getsize("profile.folded") > 0


# -- per-job profiles through the runner -------------------------------------------


def _profiled_sweep_point(scale):
    from repro.experiments import fig16_prealignment

    return fig16_prealignment.run(scale, runner=ParallelSweepRunner(jobs=1))


class TestPerJobProfiles:
    def test_profile_dir_writes_one_report_per_job(self, tmp_path):
        profile_dir = str(tmp_path / "profiles")
        runner = ParallelSweepRunner(jobs=1, profile_dir=profile_dir)
        jobs = [
            SweepJob("pt/a", _profiled_sweep_point, (ExperimentScale.quick(),)),
            SweepJob("pt/b", _profiled_sweep_point, (ExperimentScale.quick(),)),
        ]
        results = runner.run(jobs)
        assert list(results) == ["pt/a", "pt/b"]
        for job in jobs:
            report = ProfileReport.load(profile_path_for(profile_dir, job.key))
            assert report.schema == PROFILE_SCHEMA
            assert report.totals["requests"]["count"] > 0

    def test_env_var_enables_profile_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "envp"))
        assert ParallelSweepRunner(jobs=1).profile_dir == str(tmp_path / "envp")
        monkeypatch.delenv("REPRO_PROFILE_DIR")
        assert ParallelSweepRunner(jobs=1).profile_dir is None

    def test_profile_and_trace_dir_combine(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        profile_dir = str(tmp_path / "profiles")
        runner = ParallelSweepRunner(jobs=1, trace_dir=trace_dir,
                                     profile_dir=profile_dir)
        runner.run([
            SweepJob("pt", _profiled_sweep_point, (ExperimentScale.quick(),)),
        ])
        assert load_trace(os.path.join(trace_dir, "pt.json"))
        assert ProfileReport.load(profile_path_for(profile_dir, "pt"))
