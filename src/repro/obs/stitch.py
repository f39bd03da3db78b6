"""Span stitching: from a trace-event stream to per-request/per-task
latency decompositions.

The instrument sites emit *local* facts — a DRAM service span on one
controller, a wire-serialization span on one link, a task park on one NDP
module.  :class:`SpanStitcher` joins them back into end-to-end stories
using the ids threaded through the span args: every memory request carries
its ``req_id`` (the async ``req``/``mem_req`` lifecycle span, the ``req``
arg on DRAM spans, the ``reqs`` list on ``xfer``/``flit_flush`` events)
and every task its ``task_id``.

The stitcher consumes the exact cycle-valued records
(:class:`~repro.obs.recorder.TraceRecord`) a
:class:`~repro.obs.recorder.TraceRecorder` keeps, either in-stream (as a
recorder listener) or post-hoc from a saved trace that
:func:`repro.obs.export.recorder_from_chrome` turned back into records.  Events may arrive in any order; unmatched halves are
counted, never fatal.  Thread and process names and exact engine runtimes
come from the recorder at :meth:`SpanStitcher.finalize` time.

All arithmetic is integer DRAM cycles, and each stitched request's phase
decomposition sums to its end-to-end latency *by construction*: measured
sub-components are clamped into their enclosing interval and the
remainder is reported as an explicit ``*_other`` phase rather than
silently lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.recorder import TraceRecord, TraceRecorder

#: Phase-key prefixes: the request leg (entry to controller arrival), the
#: response leg (service end to completion), and ``fab_`` for requests
#: whose interior could not be split (e.g. routed atomics, which never
#: visit a controller themselves).
LEG_REQUEST = "req"
LEG_RESPONSE = "resp"
LEG_FABRIC = "fab"

#: Shared stand-in for a record without args (never mutated).
_NO_ARGS: Dict[str, object] = {}

#: Mapping from a link's ``role`` arg to the attribution component its
#: serialization (+ propagation, for buses) cycles land in.
_ROLE_COMPONENTS = {
    "cxl_link": ("cxl_serialize", "cxl_propagate"),
    "switch_bus": ("switch_bus", "switch_bus"),
    "host_bus": ("host_detour", "host_detour"),
    "ddr_bus": ("ddr_bus", "ddr_bus"),
}


@dataclass
class _Hop:
    """One wire crossing attributed to a request."""

    start: int
    serialize: int
    lat: int
    wait: int
    role: str


@dataclass
class _RequestTrace:
    """Mutable per-request accumulator (internal)."""

    begin: Optional[int] = None
    end: Optional[int] = None
    task: Optional[int] = None
    enq: Optional[int] = None
    svc_start: Optional[int] = None
    svc_dur: Optional[int] = None
    row_state: Optional[str] = None
    mc_tid: Optional[int] = None
    hops: List[_Hop] = field(default_factory=list)
    packer: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class _TaskTrace:
    """Mutable per-task accumulator (internal)."""

    begin: Optional[int] = None
    end: Optional[int] = None
    algorithm: Optional[str] = None
    computes: List[Tuple[int, int]] = field(default_factory=list)
    stalls: List[int] = field(default_factory=list)
    readies: List[int] = field(default_factory=list)


@dataclass
class RequestProfile:
    """One stitched memory request: identity, endpoints, and a phase
    decomposition whose values sum exactly to ``total_cycles``."""

    pid: int
    req_id: int
    task: Optional[int]
    begin: int
    end: int
    phases: Dict[str, int]
    row_state: Optional[str]
    complete: bool
    clamped: bool

    @property
    def total_cycles(self) -> int:
        """End-to-end latency in cycles."""
        return self.end - self.begin


@dataclass
class TaskProfile:
    """One stitched NDP task: lifetime split into compute, memory stall,
    PE wait, and the scheduling remainder."""

    pid: int
    task_id: int
    algorithm: Optional[str]
    begin: int
    end: int
    phases: Dict[str, int]
    complete: bool

    @property
    def total_cycles(self) -> int:
        """Submit-to-complete lifetime in cycles."""
        return self.end - self.begin


@dataclass
class StitchedRun:
    """Everything :class:`SpanStitcher.finalize` reconstructs."""

    requests: List[RequestProfile]
    tasks: List[TaskProfile]
    #: Request/task records missing their begin or end half.
    unmatched_requests: int
    unmatched_tasks: int
    #: (pid, component path) -> total busy cycles from duration spans.
    busy_cycles: Dict[Tuple[int, str], int]
    #: (pid, component path) -> per-span-name busy cycles, for flamegraphs.
    span_stacks: Dict[Tuple[str, int, str, str], int]
    #: pid -> final engine clock (noted runtimes, else last event seen).
    runtimes: Dict[int, int]
    #: pid -> root-component label.
    process_names: Dict[int, str]
    #: (pid, MC path) -> Little's-law inputs: (issued requests, summed
    #: queue+service residence cycles, time-integrated sampled queue depth
    #: in depth-cycles).  Dividing the last two by runtime gives the
    #: predicted and observed time-average occupancy respectively.
    mc_queueing: Dict[Tuple[int, str], Tuple[int, int, int]]
    #: (pid, PE-pool path) -> time-integrated (busy-area, capacity) cycles.
    pe_occupancy: Dict[Tuple[int, str], Tuple[float, int]]
    #: pid -> instant-event counts (host detours, switch turnarounds).
    host_detours: Dict[int, int]
    turnarounds: Dict[int, int]
    events_seen: int


class SpanStitcher:
    """Incremental trace-record consumer that rebuilds request/task stories.

    Feed it records in any order (listener callback or a replayed
    recorder), then call :meth:`finalize` once with the recorder that
    produced them.
    """

    def __init__(self) -> None:
        self._requests: Dict[Tuple[int, int], _RequestTrace] = {}
        self._tasks: Dict[Tuple[int, int], _TaskTrace] = {}
        self._busy: Dict[Tuple[int, int], int] = {}
        self._stacks: Dict[Tuple[str, int, int, str], int] = {}
        self._max_ts: Dict[int, int] = {}
        self._mc_q: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._pe_samples: Dict[Tuple[int, str], List[Tuple[int, int, int]]] = {}
        self._detours: Dict[int, int] = {}
        self._turnarounds: Dict[int, int] = {}
        self.events_seen = 0

    # -- feeding ------------------------------------------------------------------

    def feed_many(self, records) -> None:
        """Feed an iterable of trace records."""
        for record in records:
            self.feed(record)

    def feed(self, record: TraceRecord) -> None:
        """Consume one trace record."""
        ph, cat, name, pid, tid, ts, dur, event_id, args = record
        self.events_seen += 1
        if ts + dur > self._max_ts.get(pid, 0):
            self._max_ts[pid] = ts + dur
        if args is None:
            args = _NO_ARGS
        if ph == "X":
            self._feed_span(cat, name, pid, tid, ts, dur, args)
        elif ph == "b" or ph == "e":
            self._feed_async(cat, name, pid, ts, event_id, args, ph == "b")
        elif ph == "i":
            self._feed_instant(name, pid, ts, args)
        elif ph == "C":
            self._feed_counter(name, pid, ts, args)

    def _feed_span(self, cat, name, pid, tid, ts, dur, args) -> None:
        self._busy[(pid, tid)] = self._busy.get((pid, tid), 0) + dur
        key = (cat, pid, tid, name)
        self._stacks[key] = self._stacks.get(key, 0) + dur
        if cat == "dram" and "req" in args:
            rec = self._request(pid, int(args["req"]))
            rec.svc_start = ts
            rec.svc_dur = dur
            rec.row_state = str(args.get("row_state")) if "row_state" in args else None
            rec.mc_tid = tid
            rec.enq = ts - int(args.get("wait", 0))
            if rec.task is None and args.get("task") is not None:
                rec.task = int(args["task"])
            self._mc_q.setdefault((pid, tid), []).append(
                (ts, int(args.get("queue_depth", 0)))
            )
        elif cat == "cxl" and name == "xfer" and "reqs" in args:
            hop = (ts, dur, int(args.get("lat", 0)), int(args.get("wait", 0)),
                   str(args.get("role", "link")))
            for rid in args["reqs"]:
                self._request(pid, int(rid)).hops.append(_Hop(*hop))
        elif cat == "ndp" and name == "compute" and "task" in args:
            self._task(pid, int(args["task"])).computes.append((ts, dur))

    def _feed_async(self, cat, name, pid, ts, event_id, args, begin) -> None:
        if cat == "req" and name == "mem_req":
            rec = self._request(pid, event_id)
            if begin:
                rec.begin = ts
                if args.get("task") is not None:
                    rec.task = int(args["task"])
            else:
                rec.end = ts
        elif cat == "ndp" and name == "task":
            task = self._task(pid, event_id)
            if begin:
                task.begin = ts
                task.algorithm = args.get("algorithm")
            else:
                task.end = ts

    def _feed_instant(self, name, pid, ts, args) -> None:
        if name == "flit_flush" and "reqs" in args:
            waits = args.get("waits") or []
            for index, rid in enumerate(args["reqs"]):
                wait = int(waits[index]) if index < len(waits) else 0
                self._request(pid, int(rid)).packer.append((ts, wait))
        elif name == "stall" and "task" in args:
            self._task(pid, int(args["task"])).stalls.append(ts)
        elif name == "ready" and "task" in args:
            self._task(pid, int(args["task"])).readies.append(ts)
        elif name == "host_detour":
            self._detours[pid] = self._detours.get(pid, 0) + 1
        elif name == "turnaround":
            self._turnarounds[pid] = self._turnarounds.get(pid, 0) + 1

    def _feed_counter(self, name, pid, ts, values) -> None:
        if not name.endswith(".pes_busy"):
            return
        path = name[: -len(".pes_busy")]
        self._pe_samples.setdefault((pid, path), []).append(
            (ts, int(values.get("busy", 0)), int(values.get("total", 0)))
        )

    # -- internals ----------------------------------------------------------------

    # Look up before building: ``setdefault`` would construct (and drop) a
    # fresh accumulator on every one of a request's several records.
    def _request(self, pid: int, rid: int) -> _RequestTrace:
        rec = self._requests.get((pid, rid))
        if rec is None:
            rec = self._requests[(pid, rid)] = _RequestTrace()
        return rec

    def _task(self, pid: int, task_id: int) -> _TaskTrace:
        task = self._tasks.get((pid, task_id))
        if task is None:
            task = self._tasks[(pid, task_id)] = _TaskTrace()
        return task

    # -- finalization --------------------------------------------------------------

    @staticmethod
    def _fit(components: Dict[str, int], interval: int) -> Tuple[Dict[str, int], bool]:
        """Clamp measured components into their enclosing interval.

        Returns the (possibly proportionally scaled-down) components and
        whether scaling was needed.  Guarantees ``sum <= interval``.
        """
        raw = sum(components.values())
        if raw <= interval or raw == 0:
            return components, False
        scaled = {
            key: (value * interval) // raw for key, value in components.items()
        }
        return scaled, True

    def _leg_components(
        self, hops: List[_Hop], packer: List[Tuple[int, int]], prefix: str
    ) -> Dict[str, int]:
        components: Dict[str, int] = {}

        def add(component: str, cycles: int) -> None:
            if cycles > 0:
                key = f"{prefix}_{component}"
                components[key] = components.get(key, 0) + cycles

        for hop in hops:
            serialize_key, lat_key = _ROLE_COMPONENTS.get(
                hop.role, ("link_other", "link_other")
            )
            add(serialize_key, hop.serialize)
            add(lat_key, hop.lat)
            add("link_wait", hop.wait)
        for _cycle, wait in packer:
            add("packer_wait", wait)
        return components

    def _finalize_request(
        self, pid: int, rid: int, rec: _RequestTrace
    ) -> Optional[RequestProfile]:
        if rec.begin is None or rec.end is None or rec.end < rec.begin:
            return None
        total = rec.end - rec.begin
        phases: Dict[str, int] = {}
        clamped = False
        interior_ok = (
            rec.svc_start is not None
            and rec.svc_dur is not None
            and rec.enq is not None
            and rec.begin <= rec.enq <= rec.svc_start
            and rec.svc_start + rec.svc_dur <= rec.end
        )
        if interior_ok:
            svc_end = rec.svc_start + rec.svc_dur
            req_hops = [h for h in rec.hops if h.start < rec.svc_start]
            resp_hops = [h for h in rec.hops if h.start >= rec.svc_start]
            req_packs = [p for p in rec.packer if p[0] < rec.svc_start]
            resp_packs = [p for p in rec.packer if p[0] >= rec.svc_start]

            req_leg = rec.enq - rec.begin
            comps, c1 = self._fit(
                self._leg_components(req_hops, req_packs, LEG_REQUEST), req_leg
            )
            phases.update(comps)
            phases[f"{LEG_REQUEST}_other"] = req_leg - sum(comps.values())

            phases["mc_queue"] = rec.svc_start - rec.enq
            state = rec.row_state or "unknown"
            phases[f"dram_row_{state}"] = rec.svc_dur

            resp_leg = rec.end - svc_end
            comps, c2 = self._fit(
                self._leg_components(resp_hops, resp_packs, LEG_RESPONSE),
                resp_leg,
            )
            phases.update(comps)
            phases[f"{LEG_RESPONSE}_other"] = resp_leg - sum(comps.values())
            clamped = c1 or c2
        else:
            # No controller interior (routed atomics, filtered categories):
            # attribute what the wire spans cover, remainder unattributed.
            comps, clamped = self._fit(
                self._leg_components(rec.hops, rec.packer, LEG_FABRIC), total
            )
            phases.update(comps)
            phases["unattributed"] = total - sum(comps.values())
        phases = {k: v for k, v in phases.items() if v != 0}
        return RequestProfile(
            pid=pid, req_id=rid, task=rec.task,
            begin=rec.begin, end=rec.end, phases=phases,
            row_state=rec.row_state, complete=interior_ok, clamped=clamped,
        )

    def _finalize_task(
        self, pid: int, task_id: int, rec: _TaskTrace
    ) -> Optional[TaskProfile]:
        if rec.begin is None or rec.end is None or rec.end < rec.begin:
            return None
        total = rec.end - rec.begin
        computes = sorted(rec.computes)
        compute = sum(dur for _start, dur in computes)
        # Scheduler instants can land a cycle outside the task's async span
        # (e.g. a ready fired on the same cycle the end event was emitted);
        # clamp them into the lifetime so no interval goes negative.
        clamp = lambda cycle: min(max(cycle, rec.begin), rec.end)  # noqa: E731
        stalls = sorted(clamp(s) for s in rec.stalls)
        readies = sorted(clamp(r) for r in rec.readies)
        compute_starts = [start for start, _dur in computes]

        def next_after(values: List[int], cycle: int, limit: int) -> int:
            for value in values:
                if value >= cycle:
                    return min(value, limit)
            return limit

        mem_stall = 0
        for stall in stalls:
            mem_stall += next_after(readies, stall, rec.end) - stall
        pe_wait = 0
        for ready in readies:
            pe_wait += next_after(compute_starts, ready, rec.end) - ready

        components, clamped = self._fit(
            {"compute": compute, "mem_stall": mem_stall, "pe_wait": pe_wait},
            total,
        )
        phases = {k: v for k, v in components.items() if v != 0}
        phases["sched_other"] = total - sum(components.values())
        complete = bool(computes) and not clamped
        if phases.get("sched_other") == 0:
            phases.pop("sched_other")
        return TaskProfile(
            pid=pid, task_id=task_id, algorithm=rec.algorithm,
            begin=rec.begin, end=rec.end, phases=phases, complete=complete,
        )

    def finalize(self, recorder: TraceRecorder) -> StitchedRun:
        """Resolve every accumulated record into profiles.

        ``recorder`` (the one whose records were fed) names threads and
        processes and supplies exact engine runtimes; a pid it never saw
        finish runs to its last event.
        """
        requests: List[RequestProfile] = []
        unmatched_requests = 0
        for (pid, rid), rec in sorted(self._requests.items()):
            profile = self._finalize_request(pid, rid, rec)
            if profile is None:
                unmatched_requests += 1
            else:
                requests.append(profile)
        tasks: List[TaskProfile] = []
        unmatched_tasks = 0
        for (pid, task_id), rec in sorted(self._tasks.items()):
            profile = self._finalize_task(pid, task_id, rec)
            if profile is None:
                unmatched_tasks += 1
            else:
                tasks.append(profile)

        runtimes = dict(self._max_ts)
        runtimes.update(recorder.runtimes)
        names = recorder.thread_names()

        def name_of(pid: int, tid: int) -> str:
            return names.get((pid, tid), f"tid{tid}")

        busy_cycles = {
            (pid, name_of(pid, tid)): cycles
            for (pid, tid), cycles in self._busy.items()
        }
        span_stacks: Dict[Tuple[str, int, str, str], int] = {}
        for (cat, pid, tid, name), cycles in self._stacks.items():
            key = (cat, pid, name_of(pid, tid), name)
            span_stacks[key] = span_stacks.get(key, 0) + cycles

        mc_queueing: Dict[Tuple[int, str], Tuple[int, int, int]] = {}
        per_mc: Dict[Tuple[int, int], List[int]] = {}
        for profile in requests:
            if not profile.complete:
                continue
            rec = self._requests[(profile.pid, profile.req_id)]
            if rec.mc_tid is None:
                continue
            wait = profile.phases.get("mc_queue", 0)
            service = rec.svc_dur or 0
            per_mc.setdefault((profile.pid, rec.mc_tid), []).append(
                wait + service
            )
        for (pid, tid), latencies in per_mc.items():
            issues = len(latencies)
            latency = sum(latencies)
            # Step-integrate the issue-instant depth samples (each held
            # until the next sample, the last until run end) so the
            # observed value is a time average, comparable to L = lambda*W.
            depth_samples = sorted(
                self._mc_q.get((pid, tid), []), key=lambda s: s[0]
            )
            depth_area = 0
            end = runtimes.get(pid, 0)
            for index, (cycle, depth) in enumerate(depth_samples):
                nxt = (
                    depth_samples[index + 1][0]
                    if index + 1 < len(depth_samples)
                    else max(end, cycle)
                )
                depth_area += depth * max(0, nxt - cycle)
            mc_queueing[(pid, name_of(pid, tid))] = (
                issues, latency, depth_area
            )

        pe_occupancy: Dict[Tuple[int, str], Tuple[float, int]] = {}
        for (pid, path), samples in self._pe_samples.items():
            # Sort by cycle only — a stable sort keeps same-cycle samples
            # in feed order, so the last value at a cycle wins as it did
            # live (acquire and release can land on the same cycle).
            samples = sorted(samples, key=lambda s: s[0])
            end = runtimes.get(pid, samples[-1][0] if samples else 0)
            area = 0.0
            capacity = 0
            for index, (cycle, busy, total) in enumerate(samples):
                nxt = samples[index + 1][0] if index + 1 < len(samples) else end
                area += busy * max(0, nxt - cycle)
                capacity = max(capacity, total, busy)
            pe_occupancy[(pid, path)] = (area, capacity)

        return StitchedRun(
            requests=requests,
            tasks=tasks,
            unmatched_requests=unmatched_requests,
            unmatched_tasks=unmatched_tasks,
            busy_cycles=busy_cycles,
            span_stacks=span_stacks,
            runtimes=runtimes,
            process_names=dict(recorder.process_names),
            mc_queueing=mc_queueing,
            pe_occupancy=pe_occupancy,
            host_detours=dict(self._detours),
            turnarounds=dict(self._turnarounds),
            events_seen=self.events_seen,
        )
