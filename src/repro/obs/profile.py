"""Latency attribution: in-stream profiling on top of the trace feed.

:class:`LatencyProfiler` subscribes to a live
:class:`~repro.obs.recorder.TraceRecorder` (see
:meth:`~repro.obs.recorder.TraceRecorder.subscribe`) and stitches the
span/instant/counter records into per-request and per-task latency
decompositions *as the simulation runs* — no post-hoc JSON reload on the
hot path, and complete even when the recorder's storage ``limit``
truncates what reaches disk.  The same stitching runs post-hoc over a
saved trace via :func:`profile_trace_file`, whose events
:mod:`repro.obs.export` turns back into the same cycle records.

The result is a :class:`ProfileReport`: a deterministic JSON artifact
(schema :data:`PROFILE_SCHEMA`) holding, per simulated system, the phase
decomposition of every stitched memory request (queueing, DRAM service by
row state, CXL serialization/propagation, switch traversal, host detour,
packer wait), the task-side split (compute / memory stall / PE wait),
per-component utilization, a Little's-law queueing sanity check, and a
critical-path verdict.  :func:`write_flamegraph` renders the report as
collapsed stacks (``layer;component;phase count``) for any flamegraph
tool; :func:`diff_reports` ranks attribution shifts between two reports.

CLI: ``python -m repro profile <figure>`` and
``python -m repro profile --diff a.json b.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import load_trace_payload, recorder_from_chrome
from repro.obs.recorder import TraceRecorder
from repro.obs.stitch import SpanStitcher, StitchedRun
from repro.schemas import SCHEMAS

#: Version tag written into every ProfileReport JSON artifact.
PROFILE_SCHEMA = SCHEMAS["profile"]

#: PE-pool utilization at/above which a system is called compute-bound.
COMPUTE_BOUND_UTILIZATION = 0.60

#: Acceptable band for the Little's-law ratio (sampled / predicted queue
#: depth).  Depths are sampled at issue instants — a biased observer — so
#: the check is a sanity gate, not an equality.
LITTLES_LAW_BAND = (0.2, 5.0)

_UTILIZATION_TOP_N = 12


def _r6(value: float) -> float:
    """Round to 6 decimals: keeps report JSON tidy and bit-stable."""
    return round(float(value), 6)


def _merge(into: Dict[str, int], phases: Dict[str, int]) -> None:
    for key, cycles in phases.items():
        into[key] = into.get(key, 0) + cycles


def _phase_layer(phase: str) -> str:
    """Map a request phase key to its owning layer for the verdict."""
    if phase == "mc_queue" or phase.startswith("dram_"):
        return "dram"
    if phase == "unattributed":
        return "other"
    return "cxl"


def _classify(
    request_phases: Dict[str, int], pe_util_max: float
) -> Dict[str, object]:
    """Critical-path verdict for one system.

    Collapses the request phases into layer totals and names what bounds
    the system: a saturated PE pool wins outright; otherwise the heavier
    of the DRAM side (split into queueing vs. device service) and the
    CXL fabric side (split into host-detour vs. fabric) does.
    """
    layers: Dict[str, int] = {}
    for phase, cycles in request_phases.items():
        layer = _phase_layer(phase)
        layers[layer] = layers.get(layer, 0) + cycles
    total = sum(layers.values())
    if pe_util_max >= COMPUTE_BOUND_UTILIZATION:
        bound = "compute"
    elif total == 0:
        bound = "idle"
    elif layers.get("dram", 0) >= layers.get("cxl", 0):
        queue = request_phases.get("mc_queue", 0)
        service = sum(
            c for p, c in request_phases.items() if p.startswith("dram_")
        )
        bound = "dram-queueing" if queue > service else "dram-service"
    else:
        detour = sum(
            c for p, c in request_phases.items() if p.endswith("host_detour")
        )
        fabric = layers.get("cxl", 0)
        bound = "cxl-host-detour" if detour * 2 > fabric else "cxl-fabric"
    dominant, dominant_cycles = "", 0
    for phase in sorted(request_phases):
        if request_phases[phase] > dominant_cycles:
            dominant, dominant_cycles = phase, request_phases[phase]
    return {
        "bound": bound,
        "dominant_phase": dominant,
        "dominant_fraction": _r6(dominant_cycles / total) if total else 0.0,
        "layers_cycles": {k: layers[k] for k in sorted(layers)},
        "pe_utilization_max": _r6(pe_util_max),
    }


@dataclass
class ProfileReport:
    """One run's latency-attribution artifact (schema
    :data:`PROFILE_SCHEMA`).

    Deterministic by construction: all values derive from simulated
    cycles and event counts — no wall-clock, no environment.  ``systems``
    maps each simulated system's root label (``#2``/``#3`` suffixes
    disambiguate repeated labels across sweep points, in engine order) to
    its decomposition; ``stacks`` holds the collapsed flamegraph
    (``layer;component;phase`` -> cycles).
    """

    figure: str
    scale: str
    tck_ns: float
    source: str
    truncated: bool
    events_seen: int
    events_dropped: int
    systems: Dict[str, Dict[str, object]]
    totals: Dict[str, object]
    stacks: Dict[str, int] = field(default_factory=dict)
    schema: str = PROFILE_SCHEMA

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return {
            "schema": self.schema,
            "figure": self.figure,
            "scale": self.scale,
            "tck_ns": self.tck_ns,
            "source": self.source,
            "truncated": self.truncated,
            "events_seen": self.events_seen,
            "events_dropped": self.events_dropped,
            "systems": self.systems,
            "totals": self.totals,
            "stacks": self.stacks,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProfileReport":
        """Rebuild a report from :meth:`to_dict` output; rejects foreign
        schemas with a clear error."""
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"not a ProfileReport (schema {schema!r}, "
                f"expected {PROFILE_SCHEMA!r})"
            )
        return cls(
            figure=str(payload.get("figure", "")),
            scale=str(payload.get("scale", "")),
            tck_ns=float(payload.get("tck_ns", 1.25)),
            source=str(payload.get("source", "")),
            truncated=bool(payload.get("truncated", False)),
            events_seen=int(payload.get("events_seen", 0)),
            events_dropped=int(payload.get("events_dropped", 0)),
            systems=dict(payload.get("systems", {})),
            totals=dict(payload.get("totals", {})),
            stacks={
                str(k): int(v)
                for k, v in dict(payload.get("stacks", {})).items()
            },
            schema=str(schema),
        )

    def save(self, path: str) -> None:
        """Write the report as sorted-key JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ProfileReport":
        """Read a report written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _system_labels(stitched: StitchedRun, pids: Sequence[int]) -> Dict[int, str]:
    """pid -> unique display label, ``#N``-suffixed on collisions."""
    labels: Dict[int, str] = {}
    seen: Dict[str, int] = {}
    for pid in pids:
        base = stitched.process_names.get(pid, f"engine{pid}")
        count = seen.get(base, 0) + 1
        seen[base] = count
        labels[pid] = base if count == 1 else f"{base}#{count}"
    return labels


def build_report(
    stitched: StitchedRun,
    figure: str = "",
    scale: str = "",
    tck_ns: float = 1.25,
    source: str = "live",
    truncated: bool = False,
    events_dropped: int = 0,
) -> ProfileReport:
    """Summarize a :class:`~repro.obs.stitch.StitchedRun` into a
    :class:`ProfileReport` (the pure aggregation step — no I/O)."""
    pids = sorted(
        set(stitched.runtimes)
        | set(stitched.process_names)
        | {pid for pid, _ in stitched.busy_cycles}
        | {r.pid for r in stitched.requests}
        | {t.pid for t in stitched.tasks}
    )
    labels = _system_labels(stitched, pids)

    systems: Dict[str, Dict[str, object]] = {}
    total_req_phases: Dict[str, int] = {}
    total_task_phases: Dict[str, int] = {}
    bound_by_system: Dict[str, str] = {}
    stacks: Dict[str, int] = {}

    for pid in pids:
        label = labels[pid]
        runtime = stitched.runtimes.get(pid, 0)

        requests = [r for r in stitched.requests if r.pid == pid]
        req_phases: Dict[str, int] = {}
        row_states: Dict[str, int] = {}
        latency_sum = 0
        complete = partial = clamped = 0
        for request in requests:
            _merge(req_phases, request.phases)
            latency_sum += request.total_cycles
            if request.complete:
                complete += 1
            else:
                partial += 1
            if request.clamped:
                clamped += 1
            if request.row_state is not None:
                row_states[request.row_state] = (
                    row_states.get(request.row_state, 0) + 1
                )
        _merge(total_req_phases, req_phases)

        tasks = [t for t in stitched.tasks if t.pid == pid]
        task_phases: Dict[str, int] = {}
        task_lifetime = 0
        for task in tasks:
            _merge(task_phases, task.phases)
            task_lifetime += task.total_cycles
        _merge(total_task_phases, task_phases)

        busy = {
            path: cycles
            for (busy_pid, path), cycles in stitched.busy_cycles.items()
            if busy_pid == pid and cycles > 0
        }
        top_busy = sorted(busy.items(), key=lambda kv: (-kv[1], kv[0]))
        utilization = {
            path: _r6(cycles / runtime) if runtime else 0.0
            for path, cycles in top_busy[:_UTILIZATION_TOP_N]
        }

        pe_utilization: Dict[str, float] = {}
        for (pe_pid, path), (area, capacity) in sorted(
            stitched.pe_occupancy.items()
        ):
            if pe_pid == pid and runtime and capacity:
                pe_utilization[path] = _r6(area / (capacity * runtime))
        pe_util_max = max(pe_utilization.values(), default=0.0)

        littles: Dict[str, Dict[str, object]] = {}
        for (mc_pid, path), (issues, latency, depth_area) in sorted(
            stitched.mc_queueing.items()
        ):
            if mc_pid != pid or not issues or not runtime:
                continue
            mean_latency = latency / issues
            # Little's law: time-average occupancy L = lambda * W, checked
            # against the controller's own (time-integrated) depth samples.
            predicted = issues / runtime * mean_latency
            sampled = depth_area / runtime
            ratio = sampled / predicted if predicted else 0.0
            littles[path] = {
                "requests": issues,
                "mean_latency_cycles": _r6(mean_latency),
                "predicted_depth": _r6(predicted),
                "sampled_depth": _r6(sampled),
                "ratio": _r6(ratio),
                "ok": bool(
                    LITTLES_LAW_BAND[0] <= ratio <= LITTLES_LAW_BAND[1]
                ),
            }

        critical_path = _classify(req_phases, pe_util_max)
        bound_by_system[label] = str(critical_path["bound"])

        systems[label] = {
            "pid": pid,
            "runtime_cycles": runtime,
            "requests": {
                "count": len(requests),
                "stitched": complete,
                "partial": partial,
                "clamped": clamped,
                "total_latency_cycles": latency_sum,
                "mean_latency_cycles": _r6(
                    latency_sum / len(requests)
                ) if requests else 0.0,
                "phases_cycles": {k: req_phases[k] for k in sorted(req_phases)},
                "row_states": {k: row_states[k] for k in sorted(row_states)},
            },
            "tasks": {
                "count": len(tasks),
                "total_lifetime_cycles": task_lifetime,
                "mean_lifetime_cycles": _r6(
                    task_lifetime / len(tasks)
                ) if tasks else 0.0,
                "phases_cycles": {
                    k: task_phases[k] for k in sorted(task_phases)
                },
            },
            "utilization": utilization,
            "pe_utilization": pe_utilization,
            "littles_law": littles,
            "critical_path": critical_path,
            "host_detours": stitched.host_detours.get(pid, 0),
            "turnarounds": stitched.turnarounds.get(pid, 0),
        }

        for phase in sorted(req_phases):
            stacks[f"request;{label};{phase}"] = req_phases[phase]
        for phase in sorted(task_phases):
            stacks[f"task;{label};{phase}"] = task_phases[phase]

    for (cat, pid, path, name), cycles in sorted(stitched.span_stacks.items()):
        if cycles <= 0:
            continue
        stack = f"{cat};{labels.get(pid, f'engine{pid}')}:{path};{name}"
        stacks[stack] = stacks.get(stack, 0) + cycles

    totals = {
        "systems": len(pids),
        "requests": {
            "count": sum(
                s["requests"]["count"] for s in systems.values()
            ),
            "unmatched": stitched.unmatched_requests,
            "phases_cycles": {
                k: total_req_phases[k] for k in sorted(total_req_phases)
            },
        },
        "tasks": {
            "count": sum(s["tasks"]["count"] for s in systems.values()),
            "unmatched": stitched.unmatched_tasks,
            "phases_cycles": {
                k: total_task_phases[k] for k in sorted(total_task_phases)
            },
        },
        "bound_by_system": bound_by_system,
    }

    return ProfileReport(
        figure=figure,
        scale=scale,
        tck_ns=tck_ns,
        source=source,
        truncated=truncated,
        events_seen=stitched.events_seen,
        events_dropped=events_dropped,
        systems=systems,
        totals=totals,
        stacks=stacks,
    )


class LatencyProfiler:
    """In-stream latency profiler: a recorder listener that stitches the
    record feed live.

    Usage::

        profiler = LatencyProfiler().attach(session.recorder)
        ...  # run experiments under the session
        report = profiler.report(figure="fig16", scale="quick")

    Attaching subscribes to the recorder's pre-cap listener feed, so the
    report is complete even when the recorder stores few (or zero)
    events.  ``report()`` may be called repeatedly; each call finalizes
    the current accumulated state.
    """

    def __init__(self) -> None:
        self.stitcher = SpanStitcher()
        self.recorder: Optional[TraceRecorder] = None

    def attach(self, recorder: TraceRecorder) -> "LatencyProfiler":
        """Subscribe to ``recorder``'s record feed; returns ``self``."""
        self.recorder = recorder
        recorder.subscribe(self.stitcher.feed)
        return self

    def report(self, figure: str = "", scale: str = "") -> ProfileReport:
        """Finalize the stream into a :class:`ProfileReport`.

        A live report is never ``truncated``: the listener feed bypasses
        the recorder's *storage* cap, so the profiler saw every event
        even if the trace file on disk did not keep them all.
        """
        return build_report(
            self.stitcher.finalize(self.recorder),
            figure=figure,
            scale=scale,
            tck_ns=self.recorder.tck_ns,
            source="live",
            truncated=False,
            events_dropped=0,
        )


def profile_events(
    events: Sequence[Dict[str, object]],
    tck_ns: float = 1.25,
    figure: str = "",
    scale: str = "",
    truncated: bool = False,
    events_dropped: int = 0,
    runtimes: Optional[Dict[int, int]] = None,
) -> ProfileReport:
    """Stitch a list of Chrome trace-event dicts (e.g. a loaded file's
    ``traceEvents``) into a report, through the same records the live
    profiler sees (:func:`~repro.obs.export.recorder_from_chrome`)."""
    recorder = recorder_from_chrome(events, tck_ns=tck_ns)
    for pid, now_cycles in (runtimes or {}).items():
        recorder.note_runtime(int(pid), int(now_cycles))
    stitcher = SpanStitcher()
    stitcher.feed_many(recorder.events)
    return build_report(
        stitcher.finalize(recorder),
        figure=figure,
        scale=scale,
        tck_ns=tck_ns,
        source="events",
        truncated=truncated,
        events_dropped=events_dropped,
    )


def profile_trace_file(path: str, figure: str = "") -> ProfileReport:
    """Profile a saved trace file (post-hoc path).

    Reads ``tck_ns``, drop counts, and exact engine runtimes from the
    file's ``otherData`` when present.  A truncated trace yields a report
    flagged ``truncated`` — phase decompositions still sum per stitched
    request, but coverage is partial; prefer in-stream profiling
    (:class:`LatencyProfiler`) for complete attribution.
    """
    payload = load_trace_payload(path)
    other = payload.get("otherData") or {}
    dropped = int(other.get("dropped", 0))
    return profile_events(
        payload["traceEvents"],
        tck_ns=float(other.get("tck_ns", 1.25)),
        figure=figure,
        truncated=bool(other.get("truncated", dropped > 0)),
        events_dropped=dropped,
        runtimes=other.get("runtimes_cycles"),
    )


def write_flamegraph(report: ProfileReport, path: str) -> int:
    """Write the report's collapsed stacks (``frame;frame;frame count``
    lines, cycle-weighted) for flamegraph tooling; returns line count."""
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(report.stacks.items())
        if count > 0
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


@dataclass
class AttributionDelta:
    """One ranked row of a report diff."""

    system: str
    metric: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        """Signed change (``b - a``)."""
        return self.b - self.a

    @property
    def relative(self) -> Optional[float]:
        """Relative change, or ``None`` when ``a`` is zero."""
        return self.delta / self.a if self.a else None


def _flatten_metrics(report: Dict[str, object]) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    for label, system in (report.get("systems") or {}).items():
        out[(label, "runtime_cycles")] = float(system.get("runtime_cycles", 0))
        requests = system.get("requests") or {}
        out[(label, "request_mean_latency_cycles")] = float(
            requests.get("mean_latency_cycles", 0.0)
        )
        for phase, cycles in (requests.get("phases_cycles") or {}).items():
            out[(label, f"request_phase.{phase}")] = float(cycles)
        tasks = system.get("tasks") or {}
        for phase, cycles in (tasks.get("phases_cycles") or {}).items():
            out[(label, f"task_phase.{phase}")] = float(cycles)
    return out


def diff_reports(a, b) -> List[AttributionDelta]:
    """Rank attribution deltas between two reports, largest |Δ| first.

    Accepts :class:`ProfileReport` instances or their ``to_dict`` forms.
    Compares per-system runtime, mean request latency, and every request/
    task phase total; systems are matched by label, and metrics present
    in only one report diff against zero.
    """
    dict_a = a.to_dict() if isinstance(a, ProfileReport) else dict(a)
    dict_b = b.to_dict() if isinstance(b, ProfileReport) else dict(b)
    metrics_a = _flatten_metrics(dict_a)
    metrics_b = _flatten_metrics(dict_b)
    deltas = [
        AttributionDelta(
            system=label, metric=metric,
            a=metrics_a.get((label, metric), 0.0),
            b=metrics_b.get((label, metric), 0.0),
        )
        for label, metric in sorted(set(metrics_a) | set(metrics_b))
    ]
    deltas = [d for d in deltas if d.delta != 0 or d.a != 0 or d.b != 0]
    deltas.sort(key=lambda d: (-abs(d.delta), d.system, d.metric))
    return deltas


def format_diff(deltas: Sequence[AttributionDelta], top: int = 20) -> str:
    """Human-readable table of the top ``top`` attribution deltas."""
    if not deltas:
        return "no attribution differences\n"
    lines = [
        f"{'system':<24} {'metric':<36} {'a':>14} {'b':>14} "
        f"{'delta':>14} {'rel':>8}"
    ]
    for delta in list(deltas)[:top]:
        rel = (
            f"{delta.relative:+.1%}" if delta.relative is not None else "new"
        )
        lines.append(
            f"{delta.system:<24.24} {delta.metric:<36.36} "
            f"{delta.a:>14.0f} {delta.b:>14.0f} "
            f"{delta.delta:>+14.0f} {rel:>8}"
        )
    return "\n".join(lines) + "\n"


def render_summary(report: ProfileReport) -> str:
    """Terminal summary of a report: per-system verdicts and top phases."""
    lines: List[str] = []
    lines.append(
        f"profile {report.figure or '<unnamed>'} "
        f"[{report.scale or 'default'}] — schema {report.schema}, "
        f"{report.events_seen} events"
        + (", TRUNCATED source" if report.truncated else "")
    )
    for label, system in report.systems.items():
        requests = system["requests"]
        tasks = system["tasks"]
        critical = system["critical_path"]
        lines.append(
            f"  {label}: runtime {system['runtime_cycles']} cyc — "
            f"bound: {critical['bound']}"
        )
        if requests["count"]:
            lines.append(
                f"    requests: {requests['count']} "
                f"(stitched {requests['stitched']}, "
                f"partial {requests['partial']}), mean latency "
                f"{requests['mean_latency_cycles']:.1f} cyc"
            )
            phases = requests["phases_cycles"]
            total = sum(phases.values()) or 1
            ranked = sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
            parts = ", ".join(
                f"{phase} {cycles / total:.0%}"
                for phase, cycles in ranked[:5]
            )
            lines.append(f"    latency: {parts}")
        if tasks["count"]:
            phases = tasks["phases_cycles"]
            total = sum(phases.values()) or 1
            parts = ", ".join(
                f"{phase} {cycles / total:.0%}"
                for phase, cycles in sorted(
                    phases.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            lines.append(f"    tasks: {tasks['count']} — {parts}")
        bad_littles = [
            path
            for path, check in system["littles_law"].items()
            if not check["ok"]
        ]
        if bad_littles:
            lines.append(
                "    littles-law outliers: " + ", ".join(bad_littles)
            )
    return "\n".join(lines) + "\n"
