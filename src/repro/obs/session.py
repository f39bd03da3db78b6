"""Installing a recorder: process-global tracing sessions.

The experiment stack builds its engines internally (one per sweep point),
so tracing is enabled by *installing* a recorder as the default every new
:class:`~repro.sim.engine.Engine` picks up at construction.
:class:`TraceSession` is the context-manager wrapper the CLI, the trace
example, and the parallel runner use::

    with TraceSession(categories={"dram", "cxl"}) as session:
        fig12_fm_seeding.run(ExperimentScale.quick(), runner=serial_runner)
    session.save("trace.json", metrics_path="metrics.csv")

Installation is per process; the parallel sweep runner installs one
session inside each worker so every job gets its own trace file.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Optional

from repro.obs.export import write_chrome_trace
from repro.obs.metrics import MetricsSampler, write_metrics_csv
from repro.obs.profile import LatencyProfiler, ProfileReport
from repro.obs.recorder import DEFAULT_EVENT_LIMIT, TraceRecorder
from repro.sim.engine import Engine

#: Default metric-sampling interval (simulated cycles) when a session is
#: created with metrics enabled but no explicit interval: 50k cycles =
#: 62.5 simulated microseconds at DDR4-1600.
DEFAULT_METRICS_INTERVAL = 50_000


def install(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the tracer of every subsequently built engine."""
    Engine.default_tracer = recorder


def uninstall() -> None:
    """Stop tracing newly built engines."""
    Engine.default_tracer = None


def current_recorder() -> Optional[TraceRecorder]:
    """The recorder new engines would pick up, or ``None``."""
    return Engine.default_tracer


class TraceSession:
    """One tracing window: recorder (+ optional metrics sampler) with
    scoped installation.

    Parameters mirror :class:`~repro.obs.recorder.TraceRecorder`;
    ``metrics_interval`` additionally attaches a
    :class:`~repro.obs.metrics.MetricsSampler` at that simulated-cycle
    cadence, and ``profile=True`` attaches an in-stream
    :class:`~repro.obs.profile.LatencyProfiler` (which sees the full
    event feed regardless of ``limit`` — a profiled-only session can run
    with ``limit=0`` and store nothing).  Sessions nest: the previously
    installed recorder (if any) is restored on exit.
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        limit: Optional[int] = DEFAULT_EVENT_LIMIT,
        metrics_interval: Optional[int] = None,
        tck_ns: float = 1.25,
        profile: bool = False,
    ) -> None:
        self.recorder = TraceRecorder(
            tck_ns=tck_ns, categories=categories, limit=limit
        )
        self.sampler: Optional[MetricsSampler] = None
        if metrics_interval is not None:
            self.sampler = MetricsSampler(metrics_interval)
            self.recorder.metrics = self.sampler
        self.profiler: Optional[LatencyProfiler] = None
        if profile:
            self.profiler = LatencyProfiler().attach(self.recorder)
        self._previous: Optional[TraceRecorder] = None

    def __enter__(self) -> "TraceSession":
        self._previous = current_recorder()
        install(self.recorder)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._previous is None:
            uninstall()
        else:
            install(self._previous)
        self._previous = None

    def save(self, trace_path: str,
             metrics_path: Optional[str] = None) -> int:
        """Write the trace JSON (and, when sampling, the metrics CSV);
        returns the number of trace events written.

        Warns (one line) when the recorder's event limit actually dropped
        events, so a silently partial trace never masquerades as a full
        one; the file itself also carries ``otherData.truncated``.
        """
        if self.recorder.truncated:
            warnings.warn(
                f"trace truncated: event limit {self.recorder.limit} "
                f"dropped {self.recorder.dropped} events "
                f"(kept {self.recorder.recorded}); raise --trace-limit "
                "for a complete file",
                RuntimeWarning,
                stacklevel=2,
            )
        written = write_chrome_trace(self.recorder, trace_path)
        if metrics_path is not None:
            if self.sampler is None:
                raise ValueError(
                    "session has no metrics sampler; pass metrics_interval="
                )
            write_metrics_csv(self.sampler, metrics_path)
        return written

    def profile_report(self, figure: str = "",
                       scale: str = "") -> ProfileReport:
        """The in-stream profiler's report (requires ``profile=True``)."""
        if self.profiler is None:
            raise ValueError("session has no profiler; pass profile=True")
        return self.profiler.report(figure=figure, scale=scale)
