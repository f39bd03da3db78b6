"""The run ledger: append-only JSONL stream of sweep-job lifecycle events.

Every campaign executed through :class:`~repro.experiments.parallel.
ParallelSweepRunner` can write a **ledger**: one JSON object per line,
each a lifecycle event of one sweep job (or of the campaign itself).
Workers produce their own ``started`` / ``finished`` / ``failed`` events
(stamped with their worker id and wall clock) and ship them back with the
job result; the parent merges them into the single ledger file in
completion order, interleaved with its own ``queued`` / ``heartbeat`` /
campaign bracket events.  The result: any campaign is reconstructable
after the fact — what ran, where, how long, what failed with which
traceback — and a resumable-sweep layer can diff the ledger's
``finished`` set against a job list to find the remainder.

Event names form a **closed registry** (:data:`LEDGER_EVENTS`), enforced
at runtime: :meth:`LedgerWriter.emit` rejects unknown names.

Ledger line fields (all lines)::

    {"schema": "repro-ledger/1", "seq": <int>, "event": <LEDGER_EVENTS>,
     "t_wall": <unix seconds>, "worker": "<host>-pid<N>", ...}

plus per-event payload fields — ``job`` (the sweep key), ``scenario``,
``params`` (the job's parameter digest), ``wall_s``, ``index_cache``
(hit/miss/... deltas), ``step_memo`` (the sweep runner's step-run memo
hit/miss deltas), ``fingerprint`` (result digest), ``error`` /
``traceback_sha256`` on failure, ``running`` on heartbeats, and the
job/failure totals on ``campaign-end``.  Lines are JSON with sorted
keys; ``seq`` is the parent's merge order, so a ledger sorts stably even
when worker wall clocks disagree.

The ledger is *observational by construction*: nothing in it feeds back
into job execution, and ``python -m repro bench`` proves full-result
digests are bit-identical with the ledger enabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Tuple

from repro.schemas import SCHEMAS

#: Version tag carried on every ledger line.
LEDGER_SCHEMA = SCHEMAS["ledger"]

#: The closed event-name registry.  ``queued``/``started``/``heartbeat``/
#: ``finished``/``failed`` are per-job lifecycle; ``campaign-begin`` /
#: ``campaign-end`` bracket one runner batch.  Extend this tuple (and the
#: docs table) before emitting a new event name — :meth:`LedgerWriter.emit`
#: rejects any other.
LEDGER_EVENTS: Tuple[str, ...] = (
    "campaign-begin",
    "queued",
    "started",
    "heartbeat",
    "finished",
    "failed",
    "campaign-end",
)


class LedgerError(ValueError):
    """A malformed ledger line, unknown event name, or foreign schema."""


def worker_id() -> str:
    """Stable-within-process worker identifier: ``<hostname>-pid<N>``."""
    return f"{socket.gethostname()}-pid{os.getpid()}"


def param_digest(func_name: str, args: Tuple[Any, ...],
                 kwargs: Mapping[str, Any]) -> str:
    """Content digest of one sweep job's parameters.

    Built from ``repr`` of the callable's qualified name and its
    arguments (kwargs in sorted key order), so two jobs with identical
    parameters digest identically across processes and sessions — the
    key a result-memoizing layer would cache on.
    """
    payload = repr((func_name, args, tuple(sorted(kwargs.items()))))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def traceback_digest(formatted_traceback: str) -> str:
    """Digest of a formatted traceback (stable failure identity)."""
    return hashlib.sha256(formatted_traceback.encode("utf-8")).hexdigest()


class LedgerWriter:
    """Appends lifecycle events to a JSONL ledger file.

    The writer owns the parent-side sequence number (``seq``) and stamps
    every line with the schema and — unless the event dict already
    carries one — this process's worker id and the current wall time.
    Opened in append mode so successive campaigns can share one ledger
    file; each campaign is bracketed by ``campaign-begin`` /
    ``campaign-end`` events.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._seq = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle: IO[str] = open(path, "a", encoding="utf-8")

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line; returns the full line dict.

        ``event`` must name a registered :data:`LEDGER_EVENTS` member.
        Caller-supplied ``t_wall`` / ``worker`` fields win (worker-origin
        events keep their original stamps through the parent merge).
        """
        if event not in LEDGER_EVENTS:
            raise LedgerError(
                f"unknown ledger event {event!r}; registered: "
                f"{', '.join(LEDGER_EVENTS)}"
            )
        line: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "seq": self._seq,
            "event": event,
            "worker": worker_id(),
            "t_wall": _wall_now(),
        }
        line.update(fields)
        self._seq += 1
        self._handle.write(json.dumps(line, sort_keys=True) + "\n")
        self._handle.flush()
        return line

    def merge(self, events: Iterable[Mapping[str, Any]]) -> int:
        """Append worker-produced event dicts, re-sequencing each.

        Each event keeps its original ``t_wall`` / ``worker`` stamps but
        receives the parent's next ``seq``, so one ledger file has one
        total order.  Returns the number of lines written.
        """
        written = 0
        for event in events:
            payload = {k: v for k, v in event.items()
                       if k not in ("schema", "seq")}
            name = payload.pop("event", None)
            if name is None:
                raise LedgerError(f"worker event without a name: {event!r}")
            self.emit(name, **payload)
            written += 1
        return written

    def close(self) -> None:
        """Flush and close the underlying file."""
        self._handle.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _wall_now() -> float:
    """Wall-clock stamp for ledger lines (isolated for testability)."""
    import time

    return time.time()


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Parse a ledger file; validates schema and event names per line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise LedgerError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if line.get("schema") != LEDGER_SCHEMA:
                raise LedgerError(
                    f"{path}:{lineno}: schema {line.get('schema')!r} is not "
                    f"{LEDGER_SCHEMA}"
                )
            if line.get("event") not in LEDGER_EVENTS:
                raise LedgerError(
                    f"{path}:{lineno}: unknown event {line.get('event')!r}"
                )
            events.append(line)
    return events


@dataclass
class LedgerSummary:
    """Aggregate view of one ledger: the ``status`` command's payload."""

    total_jobs: int = 0
    queued: int = 0
    running: int = 0
    finished: int = 0
    failed: int = 0
    #: Wall seconds from the first to the last event seen.
    elapsed_s: float = 0.0
    #: Finished jobs per wall second over the observed window.
    throughput_jobs_s: float = 0.0
    #: Naive remaining-work estimate: unfinished jobs / throughput.
    eta_s: Optional[float] = None
    #: ``(job key, wall_s)`` of completed jobs, slowest first.
    slowest: List[Tuple[str, float]] = field(default_factory=list)
    #: Jobs finished per worker id.
    per_worker: Dict[str, int] = field(default_factory=dict)
    #: Summed index-cache deltas across finished jobs.
    index_cache: Dict[str, float] = field(default_factory=dict)
    #: Summed step-memo hit/miss deltas across finished jobs (a hit is a
    #: run returned from the memo instead of simulated).
    step_memo: Dict[str, int] = field(default_factory=dict)
    #: ``(job key, traceback digest, error head)`` per failure.
    failures: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Scenario names seen on campaign-begin events.
    scenarios: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``status --json``)."""
        return {
            "total_jobs": self.total_jobs,
            "queued": self.queued,
            "running": self.running,
            "finished": self.finished,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
            "throughput_jobs_s": self.throughput_jobs_s,
            "eta_s": self.eta_s,
            "slowest": [list(pair) for pair in self.slowest],
            "per_worker": dict(sorted(self.per_worker.items())),
            "index_cache": dict(sorted(self.index_cache.items())),
            "step_memo": dict(sorted(self.step_memo.items())),
            "failures": [list(row) for row in self.failures],
            "scenarios": list(self.scenarios),
        }


def summarize_ledger(events: Iterable[Mapping[str, Any]],
                     slowest_n: int = 5) -> LedgerSummary:
    """Fold ledger events into a :class:`LedgerSummary`.

    Job state is the last lifecycle event seen per key: ``queued`` →
    ``started`` (running) → ``finished`` / ``failed``.  Throughput and
    ETA come from the observed wall-time window, so a live ledger (tail
    of a running campaign) yields a live estimate.
    """
    summary = LedgerSummary()
    state: Dict[str, str] = {}
    wall_by_job: Dict[str, float] = {}
    first_t: Optional[float] = None
    last_t: Optional[float] = None
    for event in events:
        t_wall = event.get("t_wall")
        if isinstance(t_wall, (int, float)):
            first_t = t_wall if first_t is None else min(first_t, t_wall)
            last_t = t_wall if last_t is None else max(last_t, t_wall)
        name = event.get("event")
        if name == "campaign-begin" and event.get("scenario"):
            summary.scenarios.append(str(event["scenario"]))
        job = event.get("job")
        if job is None:
            continue
        if name in ("queued", "started", "finished", "failed"):
            state[job] = name
        if name == "finished":
            wall = float(event.get("wall_s") or 0.0)
            wall_by_job[job] = wall
            worker = str(event.get("worker", "?"))
            summary.per_worker[worker] = summary.per_worker.get(worker, 0) + 1
            for key, value in (event.get("index_cache") or {}).items():
                summary.index_cache[key] = (
                    summary.index_cache.get(key, 0) + value
                )
            for key, value in (event.get("step_memo") or {}).items():
                summary.step_memo[key] = summary.step_memo.get(key, 0) + value
        elif name == "failed":
            summary.failures.append((
                job,
                str(event.get("traceback_sha256", "")),
                str(event.get("error", "")).splitlines()[0]
                if event.get("error") else "",
            ))
    summary.total_jobs = len(state)
    for status in state.values():
        if status == "queued":
            summary.queued += 1
        elif status == "started":
            summary.running += 1
        elif status == "finished":
            summary.finished += 1
        elif status == "failed":
            summary.failed += 1
    if first_t is not None and last_t is not None:
        summary.elapsed_s = max(0.0, last_t - first_t)
    if summary.elapsed_s > 0 and summary.finished:
        summary.throughput_jobs_s = summary.finished / summary.elapsed_s
        remaining = summary.queued + summary.running
        if remaining:
            summary.eta_s = remaining / summary.throughput_jobs_s
    summary.slowest = sorted(
        wall_by_job.items(), key=lambda kv: (-kv[1], kv[0])
    )[:slowest_n]
    return summary


def render_status(summary: LedgerSummary) -> str:
    """Human-readable status block (the ``python -m repro status`` body)."""
    lines = []
    scenarios = ", ".join(summary.scenarios) or "?"
    lines.append(f"[status] campaigns: {scenarios}")
    lines.append(
        f"[status] jobs: {summary.total_jobs} total — "
        f"{summary.finished} finished, {summary.running} running, "
        f"{summary.queued} queued, {summary.failed} failed"
    )
    lines.append(
        f"[status] elapsed {summary.elapsed_s:.1f}s, throughput "
        f"{summary.throughput_jobs_s:.2f} jobs/s"
        + (f", eta {summary.eta_s:.1f}s" if summary.eta_s is not None
           else "")
    )
    if summary.per_worker:
        per_worker = "  ".join(
            f"{worker}={count}"
            for worker, count in sorted(summary.per_worker.items())
        )
        lines.append(f"[status] per worker: {per_worker}")
    if summary.index_cache:
        cache = "  ".join(
            f"{key}={value:g}"
            for key, value in sorted(summary.index_cache.items())
        )
        lines.append(f"[status] index cache: {cache}")
    if summary.step_memo:
        memo = "  ".join(
            f"{key}={value}" for key, value in sorted(summary.step_memo.items())
        )
        lines.append(f"[status] step memo: {memo}")
    if summary.slowest:
        lines.append("[status] slowest jobs:")
        for key, wall in summary.slowest:
            lines.append(f"    {key:40s} {wall:8.2f}s")
    if summary.failures:
        lines.append("[status] failures:")
        for key, digest, head in summary.failures:
            lines.append(f"    {key:40s} {digest[:12]}  {head}")
    return "\n".join(lines) + "\n"
