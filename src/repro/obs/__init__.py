"""Observability: simulation tracing and live metrics.

``repro.obs`` is the always-available, off-by-default tracing layer of the
simulator.  A :class:`TraceRecorder` installed on the event engine (via
:class:`TraceSession` or :func:`install`) records typed spans and instant
events — DRAM commands, CXL flit transfers, NDP task/compute activity,
memory-management operations — with timestamps in simulated time, and a
:class:`MetricsSampler` snapshots :class:`~repro.sim.stats.StatScope`
counters at a configurable simulated-time interval.  Exporters write
Chrome/Perfetto ``trace_event`` JSON (open in https://ui.perfetto.dev or
``chrome://tracing``) and metric samples as CSV or JSON (identical rows
either way).  The fleet-level counterpart — cross-run job ledger, metrics
registry, progress line — lives in :mod:`repro.obs.telemetry`.

Tracing is purely observational: instrument sites only *read* simulator
state and never schedule events, so simulated cycle counts and energy
totals are bit-identical with tracing on or off (every
``python -m repro bench`` proves it).  When no recorder is installed the
instrument sites reduce to one attribute read and a truth test.

On top of the raw feed sits the latency-attribution layer
(``repro.obs.profile`` + ``repro.obs.stitch``): a
:class:`LatencyProfiler` subscribed to the recorder stitches every memory
request and NDP task back into an end-to-end phase decomposition in
stream, producing a deterministic :class:`ProfileReport` artifact,
collapsed-stack flamegraphs (:func:`write_flamegraph`), and ranked diffs
between runs (:func:`diff_reports`).

See ``docs/OBSERVABILITY.md`` for the category/span reference, the
profiling guide, and a worked diagnosis example.
"""

from repro.obs.export import (
    TraceFormatError,
    busiest_components,
    load_trace,
    load_trace_payload,
    trace_layers,
    write_chrome_trace,
)
from repro.obs.metrics import (
    METRICS_COLUMNS,
    MetricsSample,
    MetricsSampler,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    AttributionDelta,
    LatencyProfiler,
    ProfileReport,
    build_report,
    diff_reports,
    format_diff,
    profile_events,
    profile_trace_file,
    render_summary,
    write_flamegraph,
)
from repro.obs.recorder import (
    DEFAULT_EVENT_LIMIT,
    TRACE_CATEGORIES,
    NullRecorder,
    TraceRecorder,
)
from repro.obs.session import TraceSession, current_recorder, install, uninstall
from repro.obs.stitch import RequestProfile, SpanStitcher, StitchedRun, TaskProfile

__all__ = [
    "AttributionDelta",
    "DEFAULT_EVENT_LIMIT",
    "LatencyProfiler",
    "METRICS_COLUMNS",
    "MetricsSample",
    "MetricsSampler",
    "NullRecorder",
    "PROFILE_SCHEMA",
    "ProfileReport",
    "RequestProfile",
    "SpanStitcher",
    "StitchedRun",
    "TRACE_CATEGORIES",
    "TaskProfile",
    "TraceFormatError",
    "TraceRecorder",
    "TraceSession",
    "build_report",
    "busiest_components",
    "current_recorder",
    "diff_reports",
    "format_diff",
    "install",
    "load_trace",
    "load_trace_payload",
    "profile_events",
    "profile_trace_file",
    "render_summary",
    "trace_layers",
    "uninstall",
    "write_chrome_trace",
    "write_flamegraph",
    "write_metrics_csv",
    "write_metrics_json",
]
