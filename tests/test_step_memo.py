"""Tests for the per-runner step-run memo (repro.experiments.runner.StepMemo).

A serial :class:`ParallelSweepRunner` hands back a copy of any step run it
has already simulated with the same inputs.  The load-bearing properties:
a memoized figure is digest-identical to a fully simulated one, a hit never
aliases another result, traced and profiled jobs always simulate, pool
workers never see the memo, and no two runners share entries.
"""

import warnings
from dataclasses import replace

import pytest

from repro.core.config import Algorithm, OptimizationFlags
from repro.experiments import ExperimentScale, ParallelSweepRunner, SweepJob
from repro.experiments.runner import (
    StepMemo,
    active_step_memo,
    run_step_sweep,
    step_memo_stats,
)
from repro.experiments.scenarios import get_scenario
from repro.obs import TraceSession
from repro.obs.telemetry import read_ledger, render_status, summarize_ledger
from repro.perf.harness import _digest


def _tiny_scale() -> ExperimentScale:
    """Smaller than quick: one seeding dataset, four k-mer reads."""
    return replace(
        ExperimentScale.quick(),
        genome_scale=0.03, read_scale=0.5, num_datasets=1,
        kmer_genome_scale=0.04, kmer_read_scale=0.15,
    )


def _seeding_job(scale: ExperimentScale, system: str = "beacon-d") -> SweepJob:
    """One FM-seeding ladder (no twin) on a freshly generated workload."""
    spec = scale.seeding_datasets()[0]
    return SweepJob(
        key=system,
        func=run_step_sweep,
        args=(system, Algorithm.FM_SEEDING, scale.seeding_workload(spec),
              scale),
        kwargs={"with_ideal": False},
    )


def _ladder_length(system: str = "beacon-d",
                   algorithm: Algorithm = Algorithm.FM_SEEDING) -> int:
    return len(OptimizationFlags.cumulative_steps(system, algorithm))


class TestAcrossFigures:
    def test_fig17_takes_fig15s_kmer_runs_from_the_memo(self):
        scale = _tiny_scale()
        runner = ParallelSweepRunner(jobs=1)
        get_scenario("fig15").run(scale, runner=runner)
        before = runner.step_memo.stats()
        memoized = get_scenario("fig17").run(scale, runner=runner)
        after = runner.step_memo.stats()
        # BEACON-D's 4 and BEACON-S's 5 k-mer steps; the FM ladders miss.
        assert after["hits"] - before["hits"] == 9
        assert after["misses"] - before["misses"] == 9
        fresh = get_scenario("fig17").run(scale,
                                          runner=ParallelSweepRunner(jobs=1))
        assert _digest(memoized) == _digest(fresh)

    def test_separately_generated_workloads_hit(self):
        scale = _tiny_scale()
        runner = ParallelSweepRunner(jobs=1)
        runner.run([_seeding_job(scale)])
        runner.run([_seeding_job(scale)])
        assert runner.step_memo.stats() == {
            "hits": _ladder_length(), "misses": _ladder_length(),
        }

    def test_different_run_kwargs_miss(self):
        scale = _tiny_scale()
        memo = StepMemo()
        workload = scale.kmer_workload()
        with active_step_memo(memo):
            for k in (15, 11):
                run_step_sweep("beacon-d", Algorithm.KMER_COUNTING, workload,
                               scale, with_ideal=False, k=k,
                               num_counters=scale.num_counters)
        assert memo.hits == 0
        assert memo.misses == len(memo.reports) == 2 * _ladder_length(
            "beacon-d", Algorithm.KMER_COUNTING)


class TestCopies:
    def test_mutating_a_returned_report_does_not_change_a_later_hit(self):
        scale = _tiny_scale()
        workload = scale.seeding_workload(scale.seeding_datasets()[0])
        memo = StepMemo()
        with active_step_memo(memo):
            first = run_step_sweep("beacon-d", Algorithm.FM_SEEDING, workload,
                                   scale, with_ideal=False)
            pristine = _digest(first)
            first.steps[0].report.extra["tampered"] = 1.0
            first.steps[0].report.runtime_cycles = 1
            second = run_step_sweep("beacon-d", Algorithm.FM_SEEDING,
                                    workload, scale, with_ideal=False)
            third = run_step_sweep("beacon-d", Algorithm.FM_SEEDING,
                                   workload, scale, with_ideal=False)
        assert memo.hits == 2 * _ladder_length()
        assert _digest(second) == pristine
        second.steps[0].report.extra["tampered"] = 2.0
        assert "tampered" not in third.steps[0].report.extra
        assert second.steps[0].report is not third.steps[0].report


class TestBypass:
    def test_outside_a_runner_nothing_is_memoized(self):
        scale = _tiny_scale()
        job = _seeding_job(scale)
        job.execute()
        assert step_memo_stats() == {"hits": 0, "misses": 0}

    @pytest.mark.parametrize("observer", ["trace_dir", "profile_dir"])
    def test_traced_or_profiled_runner_records_no_hits(self, observer,
                                                       tmp_path):
        scale = _tiny_scale()
        runner = ParallelSweepRunner(jobs=1, **{observer: str(tmp_path)})
        runner.run([_seeding_job(scale)])
        runner.run([_seeding_job(scale)])
        assert runner.step_memo.stats() == {"hits": 0, "misses": 0}

    def test_runner_inside_a_trace_session_records_no_hits(self):
        scale = _tiny_scale()
        runner = ParallelSweepRunner(jobs=1)
        with TraceSession(limit=0):
            runner.run([_seeding_job(scale)])
            runner.run([_seeding_job(scale)])
        assert runner.step_memo.stats() == {"hits": 0, "misses": 0}

    def test_pool_runner_is_digest_identical_with_no_hits(self):
        scale = _tiny_scale()

        def jobs():
            return [_seeding_job(scale, system)
                    for system in ("beacon-d", "beacon-s")]

        serial = ParallelSweepRunner(jobs=1).run(jobs())
        pool = ParallelSweepRunner(jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pooled = pool.run(jobs())
            again = pool.run(jobs())
        if not pool.last_run_parallel:
            pytest.skip("no process pool in this environment")
        assert _digest(pooled) == _digest(serial) == _digest(again)
        assert pool.step_memo.stats() == {"hits": 0, "misses": 0}

    def test_two_runners_never_share_entries(self):
        scale = _tiny_scale()
        first = ParallelSweepRunner(jobs=1)
        second = ParallelSweepRunner(jobs=1)
        first.run([_seeding_job(scale)])
        second.run([_seeding_job(scale)])
        assert first.step_memo is not second.step_memo
        assert first.step_memo.hits == second.step_memo.hits == 0
        assert second.step_memo.misses == _ladder_length()


class TestCpuBaseline:
    def test_sweep_k_reaches_the_cpu_model(self):
        scale = _tiny_scale()
        workload = scale.kmer_workload()
        ops = {}
        for k in (15, 11):
            sweep = run_step_sweep("beacon-d", Algorithm.KMER_COUNTING,
                                   workload, scale, with_ideal=False,
                                   with_cpu=True, k=k,
                                   num_counters=scale.num_counters)
            ops[k] = sweep.cpu.extra["ops"]
        read_kmers = sum(len(read) for read in workload.reads)
        assert ops[15] == read_kmers - 14 * len(workload.reads)
        assert ops[11] == read_kmers - 10 * len(workload.reads)


class TestLedger:
    def test_finished_events_carry_step_memo_deltas(self, tmp_path):
        scale = _tiny_scale()
        path = str(tmp_path / "runs.jsonl")
        runner = ParallelSweepRunner(jobs=1, ledger_path=path)
        runner.run([_seeding_job(scale)], label="first")
        runner.run([_seeding_job(scale)], label="second")
        finished = [e for e in read_ledger(path) if e["event"] == "finished"]
        steps = _ladder_length()
        assert [e["step_memo"] for e in finished] == [
            {"hits": 0, "misses": steps}, {"hits": steps, "misses": 0},
        ]
        summary = summarize_ledger(read_ledger(path))
        assert summary.step_memo == {"hits": steps, "misses": steps}
        assert summary.to_dict()["step_memo"] == summary.step_memo
        assert f"step memo: hits={steps}  misses={steps}" in \
            render_status(summary)
