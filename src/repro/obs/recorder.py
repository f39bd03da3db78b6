"""Trace recorders: the event sink behind every instrument site.

A :class:`TraceRecorder` keeps one :class:`TraceRecord` per event —
complete spans (phase ``"X"``), instants (``"i"``), counters (``"C"``), and
async begin/end pairs (``"b"``/``"e"``) — with every time in simulated
DRAM cycles.  Each engine gets its own trace ``pid`` (its
:attr:`~repro.sim.engine.Engine.trace_id`), so the many single-shot
systems built during one figure campaign appear as separate processes on
one timeline; component paths become numbered threads within the
process.  Microseconds, hex ids and metadata events exist only in a saved
file: :mod:`repro.obs.export` is the one module that knows the Chrome
``trace_event`` format.

Instrument sites follow one pattern::

    tracer = self.engine.tracer
    if tracer:                       # None and NullRecorder are falsy
        tracer.complete("dram", "RD", self.path, start, dur,
                        pid=self.engine.trace_id, args={...})

so a disabled run pays exactly one attribute read and a truth test per
site.  :class:`NullRecorder` is a do-nothing stand-in for callers that
want to hold a recorder unconditionally.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

#: The instrumented layers.  ``dram`` — controller command/data activity;
#: ``cxl`` — link serialization, flit packing, routing decisions; ``ndp`` —
#: PE compute, task lifetimes, stalls; ``mem`` — the memory-management
#: framework (dedication, allocation, memory clean); ``req`` — memory-request
#: lifecycles (one async span per request from pool entry to completion,
#: the anchor the latency-attribution stitcher keys on).
TRACE_CATEGORIES: Tuple[str, ...] = ("dram", "cxl", "ndp", "mem", "req")

#: Default cap on recorded events.  A quick-scale figure campaign emits a
#: few hundred thousand events; the cap keeps worst-case memory and JSON
#: size bounded while :attr:`TraceRecorder.dropped` reports what was cut.
DEFAULT_EVENT_LIMIT = 2_000_000


class TraceRecord(NamedTuple):
    """One recorded event, in simulated cycles.

    ``ph`` is the phase letter (``X``/``i``/``C``/``b``/``e``), ``tid`` the
    interned component path (``0`` for counters, whose ``name`` is the
    full ``path.series`` track name), ``dur`` the span length (``0``
    except for ``X``), ``event_id`` the async span id (``None`` except for
    ``b``/``e``) and ``args`` the site's arguments (``None`` when empty).
    """

    ph: str
    cat: str
    name: str
    pid: int
    tid: int
    cycle: int
    dur: int
    event_id: Optional[int]
    args: Optional[Dict[str, object]]


class NullRecorder:
    """A recorder that records nothing (the no-op fast path).

    Falsy, so ``if tracer:`` guards skip argument construction entirely;
    every method is a no-op with the same signature as
    :class:`TraceRecorder`, so it can also be called unconditionally.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def wants(self, cat: str) -> bool:
        """Whether events of category ``cat`` would be kept (never)."""
        return False

    def complete(self, cat, name, path, start_cycle, dur_cycles,
                 pid=0, args=None) -> None:
        """Discard a span."""

    def instant(self, cat, name, path, cycle, pid=0, args=None) -> None:
        """Discard an instant event."""

    def counter(self, cat, name, path, cycle, values, pid=0) -> None:
        """Discard a counter sample."""

    def async_begin(self, cat, name, path, cycle, event_id,
                    pid=0, args=None) -> None:
        """Discard an async-begin event."""

    def async_end(self, cat, name, path, cycle, event_id,
                  pid=0, args=None) -> None:
        """Discard an async-end event."""

    def register_root(self, pid, name, scope) -> None:
        """Ignore a root-component registration."""

    def note_runtime(self, pid, now_cycles) -> None:
        """Ignore an engine-runtime note."""


class TraceRecorder:
    """Collects typed trace records from the instrument sites.

    Parameters
    ----------
    tck_ns:
        Simulated nanoseconds per engine cycle (1.25 for the DDR4-1600
        devices every experiment uses); the exporter uses it to write the
        microsecond times a trace file carries.
    categories:
        Keep only these categories (see :data:`TRACE_CATEGORIES`);
        ``None`` keeps everything.
    limit:
        Maximum number of events retained; further events are counted in
        :attr:`dropped` instead of stored.  ``None`` means unbounded.
    """

    enabled = True

    def __init__(
        self,
        tck_ns: float = 1.25,
        categories: Optional[Iterable[str]] = None,
        limit: Optional[int] = DEFAULT_EVENT_LIMIT,
    ) -> None:
        if tck_ns <= 0:
            raise ValueError("tck_ns must be positive")
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        self.tck_ns = float(tck_ns)
        self.categories: Optional[FrozenSet[str]] = (
            frozenset(categories) if categories is not None else None
        )
        if self.categories is not None:
            unknown = self.categories - set(TRACE_CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"known: {list(TRACE_CATEGORIES)}"
                )
        self.limit = limit
        self.events: List[TraceRecord] = []
        self.dropped = 0
        #: Optional :class:`~repro.obs.metrics.MetricsSampler`; when set,
        #: every record call gives it a chance to snapshot counters.
        self.metrics = None
        #: In-stream subscribers: callables invoked with every record that
        #: passes the *category* filter, before the storage cap is applied
        #: — so a listener (e.g. the latency-attribution profiler) sees the
        #: complete feed even when ``limit`` truncates storage.
        self.listeners: List = []
        #: Final engine clock per trace pid (``Engine.run`` notes its clock
        #: here on every return), so utilization denominators are exact.
        self.runtimes: Dict[int, int] = {}
        #: pid -> root-component label (the trace process name).
        self.process_names: Dict[int, str] = {}
        #: (pid, component path) -> interned thread id, in first-seen order.
        self.thread_ids: Dict[Tuple[int, str], int] = {}
        #: Registered ``(pid, StatScope)`` roots (metric sampling targets).
        self.root_scopes: List[Tuple[int, object]] = []

    def __bool__(self) -> bool:
        return True

    # -- configuration / wiring ---------------------------------------------------

    def wants(self, cat: str) -> bool:
        """Whether events of category ``cat`` pass the filter."""
        return self.categories is None or cat in self.categories

    def register_root(self, pid: int, name: str, scope) -> None:
        """Bind a root component: names the trace process, and registers
        its :class:`~repro.sim.stats.StatScope` tree for metric sampling."""
        self.process_names.setdefault(pid, name)
        self.root_scopes.append((pid, scope))

    def thread_names(self) -> Dict[Tuple[int, int], str]:
        """``(pid, tid) -> component path`` for every interned thread."""
        return {(pid, tid): path for (pid, path), tid in self.thread_ids.items()}

    def note_runtime(self, pid: int, now_cycles: int) -> None:
        """Record the final engine clock of trace process ``pid``."""
        if now_cycles > self.runtimes.get(pid, 0):
            self.runtimes[pid] = now_cycles

    def subscribe(self, listener) -> None:
        """Register an in-stream record subscriber (see :attr:`listeners`)."""
        self.listeners.append(listener)

    @property
    def truncated(self) -> bool:
        """Whether the storage cap dropped at least one event."""
        return self.dropped > 0

    # -- internals -----------------------------------------------------------------

    def _tid(self, pid: int, path: str) -> int:
        key = (pid, path)
        tid = self.thread_ids.get(key)
        if tid is None:
            tid = len(self.thread_ids) + 1
            self.thread_ids[key] = tid
        return tid

    def _admit(self, cat: str, cycle: int, pid: int) -> bool:
        """Shared front door: drive the metrics sampler and apply the
        category filter.  The storage cap is applied later, in
        :meth:`_commit`, so in-stream listeners see capped events too."""
        if self.metrics is not None:
            self.metrics.maybe_sample(self, pid, cycle)
        if self.categories is not None and cat not in self.categories:
            return False
        if not self.listeners and (
            self.limit is not None and len(self.events) >= self.limit
        ):
            # No listeners: skip building the record entirely.
            self.dropped += 1
            return False
        return True

    def _commit(self, record: TraceRecord) -> None:
        """Dispatch an admitted record to listeners, then store it (or
        count it as dropped once the storage cap is reached)."""
        for listener in self.listeners:
            listener(record)
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(record)

    # -- record API ---------------------------------------------------------------

    def complete(
        self,
        cat: str,
        name: str,
        path: str,
        start_cycle: int,
        dur_cycles: int,
        pid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a complete span (phase ``"X"``) on component ``path``."""
        if self._admit(cat, start_cycle, pid):
            self._commit(TraceRecord(
                "X", cat, name, pid, self._tid(pid, path),
                start_cycle, dur_cycles, None, args or None,
            ))

    def instant(
        self,
        cat: str,
        name: str,
        path: str,
        cycle: int,
        pid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record an instant event (phase ``"i"``, thread scope)."""
        if self._admit(cat, cycle, pid):
            self._commit(TraceRecord(
                "i", cat, name, pid, self._tid(pid, path),
                cycle, 0, None, args or None,
            ))

    def counter(
        self,
        cat: str,
        name: str,
        path: str,
        cycle: int,
        values: Dict[str, float],
        pid: int = 0,
    ) -> None:
        """Record a counter sample (phase ``"C"``) — one track per series."""
        if self._admit(cat, cycle, pid):
            self._commit(TraceRecord(
                "C", cat, f"{path}.{name}", pid, 0,
                cycle, 0, None, dict(values),
            ))

    def async_begin(
        self,
        cat: str,
        name: str,
        path: str,
        cycle: int,
        event_id: int,
        pid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Open an async span (phase ``"b"``) — e.g. a task's lifetime,
        which parks and resumes across many engine callbacks."""
        if self._admit(cat, cycle, pid):
            self._commit(TraceRecord(
                "b", cat, name, pid, self._tid(pid, path),
                cycle, 0, event_id, args or None,
            ))

    def async_end(
        self,
        cat: str,
        name: str,
        path: str,
        cycle: int,
        event_id: int,
        pid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Close an async span opened by :meth:`async_begin` (same
        ``cat``/``name``/``event_id``)."""
        if self._admit(cat, cycle, pid):
            self._commit(TraceRecord(
                "e", cat, name, pid, self._tid(pid, path),
                cycle, 0, event_id, args or None,
            ))

    # -- reporting ----------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Number of events currently held."""
        return len(self.events)

    def layers(self) -> FrozenSet[str]:
        """Categories that actually recorded at least one event."""
        return frozenset(record.cat for record in self.events)
