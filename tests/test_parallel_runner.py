"""Tests for the parallel sweep fan-out (repro.experiments.parallel).

The load-bearing property is *determinism*: a batch of sweep jobs must
produce bit-identical results whether it runs serially, serially again, or
fanned out over a process pool.  The simulations themselves are seeded and
engine-ordered, so any divergence would come from the fan-out layer — which
is exactly what these tests pin down.
"""

import warnings
from dataclasses import replace

import pytest

from repro.core.config import Algorithm
from repro.experiments import (
    ExperimentScale,
    ParallelSweepRunner,
    SweepJob,
    resolve_runner,
)
from repro.experiments.parallel import SweepJobError, _execute_job
from repro.experiments.runner import run_step_sweep
from repro.obs.telemetry import read_ledger, summarize_ledger
from repro.perf import fingerprint


def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"boom on {x}")
    return x * 10


def _raise_local_exception(x):
    class LocalError(RuntimeError):
        """Defined inside the function, so it cannot pickle by reference."""

    raise LocalError(f"unshippable failure on {x}")


def _tiny_scale() -> ExperimentScale:
    """Even smaller than quick: one dataset, minimal genome/read scales."""
    return replace(
        ExperimentScale.quick(),
        genome_scale=0.03, read_scale=0.5, num_datasets=1,
    )


def _seeding_jobs(scale) -> list:
    """One picklable FM-seeding sweep job per seeding dataset."""
    return [
        SweepJob(
            key=spec.name,
            func=run_step_sweep,
            args=("beacon-d", Algorithm.FM_SEEDING,
                  scale.seeding_workload(spec), scale),
            kwargs={"with_ideal": False},
        )
        for spec in scale.seeding_datasets()
    ]


# -- mechanics ---------------------------------------------------------------------


def test_serial_run_preserves_submission_order():
    runner = ParallelSweepRunner(jobs=1)
    jobs = [SweepJob(key=str(i), func=_square, args=(i,)) for i in (3, 1, 2)]
    results = runner.run(jobs)
    assert list(results) == ["3", "1", "2"]
    assert results == {"3": 9, "1": 1, "2": 4}
    assert runner.last_run_parallel is False


def test_run_values_matches_run_order():
    runner = ParallelSweepRunner(jobs=1)
    jobs = [SweepJob(key=str(i), func=_square, args=(i,)) for i in range(5)]
    assert runner.run_values(jobs) == [0, 1, 4, 9, 16]


def test_duplicate_keys_rejected():
    runner = ParallelSweepRunner(jobs=1)
    jobs = [SweepJob(key="same", func=_square, args=(i,)) for i in range(2)]
    with pytest.raises(ValueError, match="duplicate"):
        runner.run(jobs)


def test_kwargs_reach_the_worker():
    def check(a, *, b):
        return (a, b)

    # Serial path (closures are fine there).
    job = SweepJob(key="k", func=check, args=(1,), kwargs={"b": 2})
    assert _execute_job(job) == (1, 2)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ParallelSweepRunner(jobs=0)


def test_jobs_resolved_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert ParallelSweepRunner.from_env().jobs == 3
    assert ParallelSweepRunner().jobs == 3
    # An explicit argument wins over the environment.
    assert ParallelSweepRunner(jobs=2).jobs == 2


def test_garbage_env_value_falls_back_to_serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.warns(UserWarning, match="REPRO_JOBS"):
        runner = ParallelSweepRunner.from_env()
    assert runner.jobs == 1


def test_resolve_runner_prefers_explicit(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    explicit = ParallelSweepRunner(jobs=2)
    assert resolve_runner(explicit) is explicit
    assert resolve_runner(None).jobs == 4


def test_unpicklable_job_falls_back_to_serial():
    """A closure cannot ship to a worker process; the batch must still
    complete (serially) instead of failing the whole evaluation."""
    captured = []

    def closure(x):  # not picklable by reference
        captured.append(x)
        return -x

    runner = ParallelSweepRunner(jobs=2)
    jobs = [SweepJob(key=str(i), func=closure, args=(i,)) for i in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = runner.run(jobs)
    assert results == {"0": 0, "1": -1, "2": -2}
    assert runner.last_run_parallel is False


def test_worker_exceptions_propagate():
    runner = ParallelSweepRunner(jobs=1)
    jobs = [SweepJob(key="bad", func=_square, args=("not-a-number",))]
    with pytest.raises(TypeError):
        runner.run(jobs)


def test_parallel_simple_results_match_serial():
    jobs = [SweepJob(key=str(i), func=_square, args=(i,)) for i in range(6)]
    serial = ParallelSweepRunner(jobs=1).run(jobs)
    parallel_runner = ParallelSweepRunner(jobs=2)
    parallel = parallel_runner.run(jobs)
    assert parallel == serial
    assert list(parallel) == list(serial)


# -- failure paths -----------------------------------------------------------------


def _mixed_jobs():
    return [SweepJob(key=str(i), func=_fail_on_two, args=(i,))
            for i in range(5)]


def test_failed_job_does_not_abort_batch():
    """One raising job must not silence the rest: run_with_outcomes
    returns every outcome, failed one included, in submission order."""
    runner = ParallelSweepRunner(jobs=1)
    outcomes = runner.run_with_outcomes(_mixed_jobs())
    assert list(outcomes) == ["0", "1", "2", "3", "4"]
    failed = outcomes["2"]
    assert failed.failed
    assert failed.error_type == "ValueError"
    assert "boom on 2" in failed.error
    assert failed.traceback_sha256 and len(failed.traceback_sha256) == 64
    assert failed.result is None
    for key in ("0", "1", "3", "4"):
        assert not outcomes[key].failed
        assert outcomes[key].result == int(key) * 10
    assert runner.last_failures.keys() == {"2"}


def test_run_reraises_first_failure_after_drain():
    """run() still raises — but only after every job has executed."""
    runner = ParallelSweepRunner(jobs=1)
    with pytest.raises(ValueError, match="boom on 2"):
        runner.run(_mixed_jobs())
    # The jobs *after* the failure still ran (their failures dict is
    # complete and the successes were recorded before the re-raise).
    assert runner.last_failures.keys() == {"2"}


def test_unpicklable_exception_raises_sweep_job_error():
    """A failure whose exception cannot ship back re-raises as
    SweepJobError carrying the key and the worker-formatted traceback."""
    runner = ParallelSweepRunner(jobs=1)
    jobs = [SweepJob(key="local", func=_raise_local_exception, args=(1,))]
    with pytest.raises(SweepJobError, match="local") as excinfo:
        runner.run(jobs)
    assert excinfo.value.key == "local"
    assert "unshippable failure on 1" in excinfo.value.formatted_traceback


def test_failed_event_lands_in_ledger(tmp_path):
    """A mid-sweep failure is a ledger event with a traceback digest, and
    the remaining jobs' finished events are still recorded."""
    ledger = str(tmp_path / "runs.jsonl")
    runner = ParallelSweepRunner(jobs=1, ledger_path=ledger)
    outcomes = runner.run_with_outcomes(_mixed_jobs(), label="failure-test")
    events = read_ledger(ledger)
    by_name = {}
    for event in events:
        by_name.setdefault(event["event"], []).append(event)
    assert len(by_name["queued"]) == 5
    assert len(by_name["started"]) == 5
    assert len(by_name["finished"]) == 4
    (failed_event,) = by_name["failed"]
    assert failed_event["job"] == "2"
    assert failed_event["error"].startswith("ValueError: boom on 2")
    assert failed_event["traceback_sha256"] == \
        outcomes["2"].traceback_sha256
    (end,) = by_name["campaign-end"]
    assert end["finished"] == 4 and end["failed"] == 1
    summary = summarize_ledger(events)
    assert summary.total_jobs == 5
    assert summary.finished == 4
    assert summary.failed == 1
    assert summary.failures[0][0] == "2"


def test_outcomes_carry_wall_time_and_worker_on_both_paths():
    """S2: per-job wall time + worker id, schema-identical serial vs pool."""
    jobs = [SweepJob(key=str(i), func=_square, args=(i,)) for i in range(4)]
    serial = ParallelSweepRunner(jobs=1).run_with_outcomes(jobs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled = ParallelSweepRunner(jobs=2).run_with_outcomes(jobs)
    for outcomes in (serial, pooled):
        assert list(outcomes) == ["0", "1", "2", "3"]
        for outcome in outcomes.values():
            assert outcome.wall_s >= 0.0
            assert outcome.worker and "-pid" in outcome.worker
            assert not outcome.failed


def test_ledger_schema_identical_serial_and_pooled(tmp_path):
    """The per-job event sequences and field sets must not depend on
    whether the batch ran serially or through the pool."""
    jobs = [SweepJob(key=str(i), func=_square, args=(i,)) for i in range(3)]

    def lifecycle(path, runner_jobs):
        runner = ParallelSweepRunner(jobs=runner_jobs, ledger_path=path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner.run(jobs)
        shapes = {}
        for event in read_ledger(path):
            if event.get("job") is None:
                continue
            shapes.setdefault(event["job"], []).append(
                (event["event"], tuple(sorted(event)))
            )
        return shapes

    serial = lifecycle(str(tmp_path / "serial.jsonl"), 1)
    pooled = lifecycle(str(tmp_path / "pooled.jsonl"), 2)
    assert serial == pooled
    for per_job in serial.values():
        assert [name for name, _fields in per_job] == \
            ["queued", "started", "finished"]


# -- determinism of real sweeps ----------------------------------------------------


def test_sweep_determinism_serial_twice_and_parallel():
    """One quick-scale sweep on two fresh serial runners (so the second
    is simulated, not taken from the first's step memo) and once through
    the pool: the Report cycle counts and energy totals must be identical."""
    scale = _tiny_scale()
    first = ParallelSweepRunner(jobs=1).run(_seeding_jobs(scale))
    second = ParallelSweepRunner(jobs=1).run(_seeding_jobs(scale))
    pool_runner = ParallelSweepRunner(jobs=2)
    with warnings.catch_warnings():
        # If the sandbox cannot fork a pool the runner degrades to serial,
        # which still exercises the determinism contract.
        warnings.simplefilter("ignore")
        pooled = pool_runner.run(_seeding_jobs(scale))

    assert list(first) == list(second) == list(pooled)
    assert fingerprint(first) == fingerprint(second)
    assert fingerprint(first) == fingerprint(pooled)
    # The fingerprints cover real content (one entry per step report).
    assert fingerprint(first)
    for sweep in first.values():
        assert all(s.report.runtime_cycles > 0 for s in sweep.steps)
