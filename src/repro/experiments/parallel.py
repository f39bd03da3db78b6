"""Parallel experiment fan-out with fleet telemetry.

Every figure of the evaluation replays dozens of *fully independent*
``(system, dataset, optimization-step)`` sweep points: each one builds its
own :class:`~repro.sim.engine.Engine`, its own system instance, and its own
workload, so nothing is shared and the points can run in separate
processes.  :class:`ParallelSweepRunner` fans a list of picklable
:class:`SweepJob` specs out over a :class:`concurrent.futures.
ProcessPoolExecutor` and returns the results keyed and ordered exactly as
submitted, which keeps every aggregate (geomeans, step tables) bit-identical
to a serial run.

Job count resolution, in priority order: the explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, else 1 (serial).  ``jobs=1`` never
touches multiprocessing, and a pool that fails to spawn (sandboxes,
restricted environments) degrades gracefully to the serial path.

Per-job tracing: a ``trace_dir`` (argument or ``REPRO_TRACE_DIR``) makes
every job run inside its own :class:`repro.obs.TraceSession` and write
``<trace_dir>/<key>.json`` — one Perfetto-loadable trace per sweep point,
in workers and in the serial path alike.  A ``profile_dir`` (argument or
``REPRO_PROFILE_DIR``) likewise attaches an in-stream
:class:`repro.obs.LatencyProfiler` to each job and writes
``<profile_dir>/<key>.profile.json`` — latency-attribution reports work
through the process pool exactly like traces, and the two can be
combined.

Fleet telemetry (see :mod:`repro.obs.telemetry` and docs/OBSERVABILITY.md,
"Fleet telemetry"):

* ``ledger_path`` (argument or ``REPRO_LEDGER``) appends one JSONL
  lifecycle event per job — ``queued`` / ``started`` / ``heartbeat`` /
  ``finished`` / ``failed`` — with wall time, worker id, parameter
  digest, index-cache and step-memo deltas, and the full-result digest
  (:func:`repro.perf.result_digest`) under the ``fingerprint`` key.
  Workers produce their own ``started``/``finished``/``failed`` events
  and the parent merges them, so the ledger schema is identical serially
  and pooled.
* ``progress=True`` (or ``REPRO_PROGRESS=1``) draws an opt-in, stderr-only
  progress line as jobs complete.

Every outcome — success or failure — carries per-job wall time and a
worker id on the serial and pooled paths alike.  A job that raises no
longer aborts the batch midway: the failure is recorded (``failed``
event, traceback digest), the remaining jobs still run and are recorded,
and the first failure is re-raised once the batch has drained, so caller
semantics (exceptions propagate) are preserved while the ledger stays
complete.

Step-run memo: a runner owns a :class:`~repro.experiments.runner.
StepMemo` for its lifetime, and the serial path activates it while its
jobs execute, so a later figure on the same runner gets back the step
runs an earlier one simulated.  Pool workers never see it.

All telemetry is observational: nothing in it feeds back into job
execution, and ``python -m repro bench`` proves full-result digests are
bit-identical with the ledger and progress line enabled.
"""

from __future__ import annotations

import os
import pickle
import re
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.runner import (
    StepMemo,
    active_step_memo,
    step_memo_stats,
)
from repro.genomics import index_cache
from repro.obs.telemetry.ledger import (
    LedgerWriter,
    param_digest,
    traceback_digest,
    worker_id,
)
from repro.obs.telemetry.progress import ProgressLine

#: Environment variable naming the ledger file (same precedence pattern
#: as ``REPRO_TRACE_DIR`` / ``REPRO_PROFILE_DIR``).
LEDGER_ENV = "REPRO_LEDGER"

#: Environment switch for the progress line (any non-empty value).
PROGRESS_ENV = "REPRO_PROGRESS"

#: Seconds between parent-side ``heartbeat`` ledger events while jobs run.
DEFAULT_HEARTBEAT_S = 30.0


@dataclass(frozen=True)
class SweepJob:
    """One independent sweep point.

    ``func`` must be picklable by reference (a module-level callable) and
    ``args``/``kwargs`` must be picklable values; the experiment layer only
    ever ships dataclasses (scales, specs, workloads, configs), which all
    qualify.  ``key`` identifies the result and must be unique per batch.
    """

    key: str
    func: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        """Run the job in the current process and return its result."""
        return self.func(*self.args, **dict(self.kwargs))

    def params_digest(self) -> str:
        """Content digest of this job's callable + arguments."""
        func_name = getattr(self.func, "__qualname__",
                            getattr(self.func, "__name__", repr(self.func)))
        module = getattr(self.func, "__module__", "")
        return param_digest(f"{module}.{func_name}", self.args, self.kwargs)


class SweepJobError(RuntimeError):
    """A sweep job failed and its original exception could not be
    re-raised verbatim (it did not survive the trip back from the worker
    process); carries the job key and the worker-formatted traceback."""

    def __init__(self, key: str, formatted_traceback: str) -> None:
        super().__init__(
            f"sweep job {key!r} failed in a worker:\n{formatted_traceback}"
        )
        self.key = key
        self.formatted_traceback = formatted_traceback


def trace_path_for(trace_dir: str, key: str) -> str:
    """Trace file a job with ``key`` writes when tracing into ``trace_dir``."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", key)
    return os.path.join(trace_dir, f"{safe}.json")


def profile_path_for(profile_dir: str, key: str) -> str:
    """Report file a job with ``key`` writes when profiling into
    ``profile_dir``."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", key)
    return os.path.join(profile_dir, f"{safe}.profile.json")


def _execute_job(
    job: SweepJob,
    trace_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> Any:
    """Run one job (with optional per-job trace/profile sessions).

    With a ``trace_dir``, the job runs under its own trace session and its
    events are written to :func:`trace_path_for` before returning; with a
    ``profile_dir``, an in-stream profiler rides the same session (storing
    zero events when no trace is wanted) and its
    :class:`~repro.obs.profile.ProfileReport` is written to
    :func:`profile_path_for`.
    """
    if trace_dir is None and profile_dir is None:
        return job.execute()
    from repro.obs import DEFAULT_EVENT_LIMIT, TraceSession

    session = TraceSession(
        limit=DEFAULT_EVENT_LIMIT if trace_dir is not None else 0,
        profile=profile_dir is not None,
    )
    with session:
        result = job.execute()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        session.save(trace_path_for(trace_dir, job.key))
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
        report = session.profile_report(figure=job.key, scale="sweep-job")
        report.save(profile_path_for(profile_dir, job.key))
    return result


@dataclass
class JobOutcome:
    """Everything one executed job reports back to the parent.

    Picklable by construction (plain data only), so the pool path ships
    the same payload the serial path produces — the ledger sees one
    schema regardless of parallelism.
    """

    key: str
    worker: str
    wall_s: float
    result: Any = None
    #: Worker-stamped lifecycle events for the parent to merge into the
    #: ledger (``started`` then ``finished``/``failed``), or ``[]`` when
    #: the batch runs without a ledger.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Failure payload (``None`` on success).
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback_sha256: Optional[str] = None
    #: The original exception, when it survived pickling; re-raised by
    #: the parent so caller-visible semantics stay unchanged.
    exception: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        """Whether this job raised instead of returning a result."""
        return self.error is not None


def _execute_job_with_meta(
    job: SweepJob,
    trace_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
    telemetry: bool = False,
) -> JobOutcome:
    """Worker entry point (module-level so the pool can pickle it).

    Runs the job (with per-job trace/profile sessions when configured),
    times it, and — with ``telemetry`` — captures the ledger events,
    index-cache and step-memo deltas, and full-result digest the parent
    merges.
    Exceptions are captured into the outcome rather than propagated, so
    one failure cannot silence the rest of a batch's records.
    """
    me = worker_id()
    cache_before = index_cache.cache_stats() if telemetry else None
    memo_before = step_memo_stats() if telemetry else None
    # Wall-clock here is fleet telemetry (job timing *is* the payload);
    # it never reaches simulated state, which only sees Engine.now.
    started_wall = time.time()  # repro: allow[no-wall-clock] -- ledger event timestamps are host-side observability; simulated results never see them
    started_perf = time.perf_counter()  # repro: allow[no-wall-clock] -- per-job wall_s is telemetry bookkeeping, not simulated time
    events: List[Dict[str, Any]] = []
    if telemetry:
        events.append({
            "event": "started", "job": job.key, "worker": me,
            "t_wall": started_wall, "params": job.params_digest(),
        })
    try:
        result = _execute_job(job, trace_dir, profile_dir)
    except Exception as exc:
        import traceback as _traceback

        formatted = _traceback.format_exc()
        wall = time.perf_counter() - started_perf  # repro: allow[no-wall-clock] -- telemetry bookkeeping (see above)
        outcome = JobOutcome(
            key=job.key, worker=me, wall_s=wall,
            error=formatted,
            error_type=type(exc).__name__,
            traceback_sha256=traceback_digest(formatted),
            exception=_if_picklable(exc),
        )
        if telemetry:
            events.append({
                "event": "failed", "job": job.key, "worker": me,
                "t_wall": started_wall + wall, "wall_s": wall,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback_sha256": outcome.traceback_sha256,
            })
            outcome.events = events
        return outcome
    wall = time.perf_counter() - started_perf  # repro: allow[no-wall-clock] -- telemetry bookkeeping (see above)
    outcome = JobOutcome(key=job.key, worker=me, wall_s=wall, result=result)
    if telemetry:
        # Imported here: repro.perf imports the experiments package, so a
        # top-level import would be circular.
        from repro.perf.harness import result_digest

        cache_after = index_cache.cache_stats()
        cache_delta = {
            key: cache_after[key] - cache_before[key] for key in cache_after
        }
        memo_after = step_memo_stats()
        events.append({
            "event": "finished", "job": job.key, "worker": me,
            "t_wall": started_wall + wall, "wall_s": wall,
            "params": job.params_digest(),
            "index_cache": cache_delta,
            "step_memo": {
                key: memo_after[key] - memo_before[key] for key in memo_after
            },
            "fingerprint": result_digest(result),
        })
        outcome.events = events
    return outcome


def _if_picklable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` if it round-trips through pickle, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


class ParallelSweepRunner:
    """Run batches of independent sweep jobs, serially or on a process pool.

    >>> runner = ParallelSweepRunner(jobs=4)
    >>> results = runner.run([SweepJob("a", func, (1,)), SweepJob("b", func, (2,))])
    >>> list(results)                   # submission order, not completion order
    ['a', 'b']
    """

    def __init__(self, jobs: Optional[int] = None,
                 trace_dir: Optional[str] = None,
                 profile_dir: Optional[str] = None,
                 ledger_path: Optional[str] = None,
                 progress: Optional[bool] = None,
                 progress_stream=None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if jobs is None:
            jobs = self._jobs_from_env()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: Directory for per-job trace files (``None`` = tracing off);
        #: defaults to ``REPRO_TRACE_DIR`` when unset.
        self.trace_dir = (
            trace_dir
            if trace_dir is not None
            else os.environ.get("REPRO_TRACE_DIR", "").strip() or None
        )
        #: Directory for per-job latency-attribution reports (``None`` =
        #: profiling off); defaults to ``REPRO_PROFILE_DIR`` when unset.
        self.profile_dir = (
            profile_dir
            if profile_dir is not None
            else os.environ.get("REPRO_PROFILE_DIR", "").strip() or None
        )
        #: JSONL run-ledger file (``None`` = no ledger); defaults to
        #: ``REPRO_LEDGER`` when unset.
        self.ledger_path = (
            ledger_path
            if ledger_path is not None
            else os.environ.get(LEDGER_ENV, "").strip() or None
        )
        #: Whether to draw the stderr progress line; defaults to
        #: ``REPRO_PROGRESS`` when unset.
        self.progress = (
            progress
            if progress is not None
            else bool(os.environ.get(PROGRESS_ENV, "").strip())
        )
        self._progress_stream = progress_stream
        self.heartbeat_s = heartbeat_s
        #: Set after each batch: whether it actually ran on a pool.
        self.last_run_parallel = False
        #: ``{job key: formatted traceback}`` of the last batch's failures.
        self.last_failures: Dict[str, str] = {}
        #: Step runs this runner has simulated on its serial path.
        self.step_memo = StepMemo()

    @staticmethod
    def _jobs_from_env() -> int:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            warnings.warn(f"ignoring non-integer REPRO_JOBS={raw!r}")
            return 1
        return max(1, jobs)

    @classmethod
    def from_env(cls) -> "ParallelSweepRunner":
        """Runner configured from ``REPRO_JOBS`` (default: serial)."""
        return cls()

    @property
    def parallel(self) -> bool:
        """Whether this runner is configured to use a process pool."""
        return self.jobs > 1

    @property
    def telemetry_enabled(self) -> bool:
        """Whether this runner records a ledger and/or progress line."""
        return self.ledger_path is not None or self.progress

    # -- execution ---------------------------------------------------------------

    def run(self, jobs: Sequence[SweepJob],
            label: Optional[str] = None) -> Dict[str, Any]:
        """Execute every job; returns ``{key: result}`` in submission order.

        Results are gathered by submission index regardless of completion
        order, so downstream aggregation sees the exact sequence a serial
        loop would have produced.  Worker exceptions still propagate —
        but only after the whole batch has drained, so the ledger records
        every job's outcome; the first failure is re-raised verbatim when
        it survived the worker boundary, else as :class:`SweepJobError`.

        ``label`` names the campaign in the ledger's ``campaign-begin``
        event (the scenario layer passes the scenario name).
        """
        jobs = list(jobs)
        outcomes = self._execute_batch(jobs, label)
        failed = [o for o in outcomes.values() if o.failed]
        if failed:
            first = failed[0]
            if first.exception is not None:
                raise first.exception
            raise SweepJobError(first.key, first.error or "")
        return {job.key: outcomes[job.key].result for job in jobs}

    def run_with_outcomes(
        self, jobs: Sequence[SweepJob], label: Optional[str] = None
    ) -> Dict[str, "JobOutcome"]:
        """Execute a batch and return the raw :class:`JobOutcome` per key.

        Unlike :meth:`run`, failures do **not** raise — callers see every
        outcome, failed jobs included, in submission order.  This is the
        entry point for layers that own their error handling (a future
        resumable-sweep executor, the failure-path tests).
        """
        return self._execute_batch(list(jobs), label)

    def _execute_batch(
        self, jobs: List[SweepJob], label: Optional[str]
    ) -> Dict[str, JobOutcome]:
        """Shared batch machinery: ledger bracket, then execution."""
        keys = [job.key for job in jobs]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate sweep job keys: {dupes}")
        self.last_failures = {}
        writer: Optional[LedgerWriter] = None
        progress_line: Optional[ProgressLine] = None
        if self.ledger_path is not None:
            writer = LedgerWriter(self.ledger_path)
            # repro: allow[transitive-wall-clock] -- ledger lines carry
            # host wall-clock timestamps by design (run provenance); they
            # never feed simulated state or the result fingerprint.
            writer.emit("campaign-begin", scenario=label or "",
                        jobs=len(jobs), jobs_config=self.jobs)
            for job in jobs:
                # repro: allow[transitive-wall-clock] -- ledger timestamp
                # is host-side provenance, never simulated state.
                writer.emit("queued", job=job.key,
                            params=job.params_digest())
        if self.progress:
            # repro: allow[transitive-wall-clock] -- the progress display
            # reads host time for ETA estimates only; it is write-only
            # console output and cannot influence results.
            progress_line = ProgressLine(
                total=len(jobs), stream=self._progress_stream
            )
        try:
            if self.jobs == 1 or len(jobs) <= 1:
                outcomes = self._run_serial(jobs, writer, progress_line)
            else:
                try:
                    outcomes = self._run_pool(jobs, writer, progress_line)
                except (OSError, pickle.PicklingError,
                        AttributeError, ImportError,
                        BrokenProcessPool) as exc:
                    # Pool could not spawn or the specs would not ship;
                    # fall back rather than failing the whole evaluation.
                    # (Job-raised exceptions are *captured* into outcomes,
                    # so they can no longer masquerade as pool failures.)
                    warnings.warn(
                        f"parallel sweep fell back to serial execution: "
                        f"{exc!r}"
                    )
                    outcomes = self._run_serial(jobs, writer, progress_line)
        finally:
            if progress_line is not None:
                progress_line.close()
        failed = [o for o in outcomes.values() if o.failed]
        self.last_failures = {o.key: o.error or "" for o in failed}
        if writer is not None:
            # repro: allow[transitive-wall-clock] -- ledger timestamp is
            # host-side provenance, never simulated state.
            writer.emit("campaign-end", scenario=label or "",
                        finished=len(outcomes) - len(failed),
                        failed=len(failed),
                        wall_s=sum(o.wall_s for o in outcomes.values()))
            writer.close()
        return {job.key: outcomes[job.key] for job in jobs}

    def run_values(self, jobs: Sequence[SweepJob]) -> List[Any]:
        """Like :meth:`run`, returning just the results in submission order."""
        return list(self.run(jobs).values())

    def _absorb(self, outcome: JobOutcome,
                writer: Optional[LedgerWriter],
                progress_line: Optional[ProgressLine]) -> None:
        """Parent-side bookkeeping for one completed job."""
        if writer is not None and outcome.events:
            # repro: allow[transitive-wall-clock] -- merged ledger events
            # carry worker-side wall timestamps (telemetry provenance),
            # not simulated time.
            writer.merge(outcome.events)
        if progress_line is not None:
            # repro: allow[transitive-wall-clock] -- progress ETA math
            # reads host time; console-only, result-invisible.
            progress_line.update(outcome.key, outcome.wall_s,
                                 failed=outcome.failed)

    def _run_serial(
        self, jobs: Sequence[SweepJob],
        writer: Optional[LedgerWriter],
        progress_line: Optional[ProgressLine],
    ) -> Dict[str, JobOutcome]:
        self.last_run_parallel = False
        telemetry = writer is not None
        outcomes: Dict[str, JobOutcome] = {}
        last_beat = time.time()  # repro: allow[no-wall-clock] -- heartbeat cadence is host-side telemetry, not simulated time
        with active_step_memo(self.step_memo):
            for job in jobs:
                now = time.time()  # repro: allow[no-wall-clock] -- heartbeat cadence is host-side telemetry, not simulated time
                if writer is not None and now - last_beat >= self.heartbeat_s:
                    # repro: allow[transitive-wall-clock] -- heartbeat
                    # lines are host-side liveness telemetry, never
                    # simulated state.
                    writer.emit("heartbeat", done=len(outcomes),
                                running=[job.key])
                    last_beat = now
                outcome = _execute_job_with_meta(
                    job, self.trace_dir, self.profile_dir,
                    telemetry=telemetry,
                )
                outcomes[job.key] = outcome
                self._absorb(outcome, writer, progress_line)
        return outcomes

    def _run_pool(
        self, jobs: Sequence[SweepJob],
        writer: Optional[LedgerWriter],
        progress_line: Optional[ProgressLine],
    ) -> Dict[str, JobOutcome]:
        telemetry = writer is not None
        workers = min(self.jobs, len(jobs))
        outcomes: Dict[str, JobOutcome] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_execute_job_with_meta, job, self.trace_dir,
                            self.profile_dir, telemetry)
                for job in jobs
            ]
            handled = [False] * len(futures)
            while not all(handled):
                wait(
                    [f for f, done in zip(futures, handled) if not done],
                    timeout=self.heartbeat_s,
                    return_when=FIRST_COMPLETED,
                )
                progressed = False
                # Scan in submission order (never completion-set order)
                # so parent-side bookkeeping stays deterministic.
                for i, future in enumerate(futures):
                    if handled[i] or not future.done():
                        continue
                    handled[i] = True
                    progressed = True
                    outcome = future.result()
                    outcomes[outcome.key] = outcome
                    self._absorb(outcome, writer, progress_line)
                if not progressed and writer is not None:
                    running = [
                        job.key for job, done in zip(jobs, handled)
                        if not done
                    ]
                    # repro: allow[transitive-wall-clock] -- heartbeat
                    # lines are host-side liveness telemetry, never
                    # simulated state.
                    writer.emit("heartbeat", done=len(outcomes),
                                running=running[:16])
        self.last_run_parallel = True
        return {job.key: outcomes[job.key] for job in jobs}

def resolve_runner(
    runner: Optional[ParallelSweepRunner] = None,
) -> ParallelSweepRunner:
    """The figure modules' default: passed-in runner, else ``REPRO_JOBS``."""
    return runner if runner is not None else ParallelSweepRunner.from_env()
