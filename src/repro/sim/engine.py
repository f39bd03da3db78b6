"""Deterministic discrete-event engine.

Events are kept in a pluggable :class:`~repro.sim.scheduler.Scheduler`
(binary heap or ring timing wheel, see :mod:`repro.sim.scheduler`);
ordering is by timestamp, FIFO within a cycle with respect to scheduling
order.  That keeps every simulation in this repository exactly
reproducible — the same configuration and workload always produce the
same cycle counts and energy totals, under either scheduler.

The run loop dispatches in *cycle batches*: one ``next_batch`` call per
populated cycle hands over that cycle's FIFO list, and the engine drains
it by index without re-touching the priority structure per event.  Events
scheduled for the current cycle while the batch drains append to the same
live list, which reproduces the historical heap's ``(time, seq)`` pop
order exactly.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Any, Callable, Dict, Iterator, Optional, Union

from repro.sim.scheduler import (
    SCHEDULERS,
    EventHandle,
    Scheduler,
    create_scheduler,
)


class SimulationError(RuntimeError):
    """Raised for invalid use of the engine (e.g. scheduling in the past)."""


def _integral_time(time: Any, what: str) -> int:
    """Coerce a non-``int`` cycle value to ``int``, rejecting fractions.

    Event times are integer DRAM cycles; a fractional delay would silently
    land on a wrong cycle (the old engine truncated via ``int(delay)``).
    Integral floats and numpy integers are accepted and normalized.
    ``what`` names the offending argument in the error.
    """
    try:
        coerced = int(time)
        exact = coerced == time
    except (TypeError, ValueError, OverflowError):
        coerced, exact = 0, False
    if not exact:
        raise SimulationError(
            f"non-integral {what}: event times are integer DRAM "
            "cycles (round explicitly at the call site)"
        )
    return coerced


class Engine:
    """Event-driven simulator with integer cycle timestamps.

    ``scheduler`` selects the priority structure: a registry name
    (``"heap"``/``"wheel"``), a ready :class:`Scheduler` instance, or
    ``None`` to honour the ``REPRO_SCHEDULER`` environment variable
    (default ``wheel``).  Results are bit-identical across schedulers.

    Example
    -------
    >>> eng = Engine()
    >>> hits = []
    >>> eng.schedule(5, lambda: hits.append(eng.now))
    >>> eng.run()
    >>> hits
    [5]
    """

    #: Process-wide event counter across every engine instance; the perf
    #: harness (``python -m repro bench``) reads deltas of this to report
    #: events/sec for a whole experiment campaign.
    _global_events_executed: int = 0

    #: Process-wide scheduler occupancy totals, keyed by scheduler name.
    #: Each :meth:`run` folds its scheduler's counter deltas in here, so
    #: the perf harness can report batching behaviour (events per populated
    #: cycle, largest batch) for a whole campaign without reaching into
    #: individual engines.
    _global_occupancy: dict = {}

    #: Recorder newly constructed engines adopt (see :mod:`repro.obs`).
    #: ``None`` keeps tracing disabled; instrument sites throughout the
    #: simulator guard with ``if engine.tracer:`` so a disabled run pays
    #: one attribute read per site.  Set via ``repro.obs.install`` /
    #: ``TraceSession`` rather than directly.
    default_tracer = None

    #: Monotonic engine counter; doubles as the trace ``pid`` so each
    #: single-shot system appears as its own process on a shared timeline.
    _next_trace_id: int = 0

    @classmethod
    def global_events_executed(cls) -> int:
        """Total events executed by all engines in this process."""
        return cls._global_events_executed

    @classmethod
    def reset_process_counters(cls) -> None:
        """Zero the process-wide event and occupancy counters.

        The perf harness calls this at the start of each measured run so
        events/sec never mixes in counts inherited from earlier work in
        the same process (or, under ``fork``-based multiprocessing, from
        the parent at fork time).
        """
        cls._global_events_executed = 0
        cls._global_occupancy = {}

    @classmethod
    def process_occupancy(cls) -> dict:
        """Scheduler occupancy totals since :meth:`reset_process_counters`.

        Maps scheduler name to ``events_enqueued`` / ``cycles_started`` /
        ``max_batch`` / ``avg_batch`` aggregated over every completed
        :meth:`run` in this process.
        """
        report = {}
        for name, totals in cls._global_occupancy.items():
            cycles = totals["cycles_started"]
            report[name] = {
                "events_enqueued": totals["events_enqueued"],
                "cycles_started": cycles,
                "max_batch": totals["max_batch"],
                "avg_batch": totals["events_enqueued"] / cycles if cycles else 0.0,
            }
        return report

    @classmethod
    @contextlib.contextmanager
    def record_delay_histogram(cls) -> Iterator[Dict[int, int]]:
        """Count every scheduled delay, process-wide, while active.

        Profiling aid behind ``python -m repro profile --delays`` — the
        measured delay distribution is what the timing wheel's ring size
        is chosen against.  Counting happens in ``push`` itself, so the
        ``schedule*`` API and the components that push straight onto the
        scheduler (link arrivals, DRAM completions) are all covered.
        Purely observational: the counting ``push`` records
        ``time - scheduler.time`` (the delay from the engine's ``now``)
        and delegates, so event order and results are untouched.  Zero
        cost when inactive: the counting ``push`` is installed on every
        registered scheduler class only while the context is entered
        (which also makes the context non-reentrant and process-global,
        like the tracer).  Yields the live histogram mapping delay
        (cycles) -> times scheduled.
        """
        histogram: Dict[int, int] = {}
        originals = {sched: sched.__dict__["push"]
                     for sched in SCHEDULERS.values()}

        def counting(push):
            def counting_push(self, time, event):
                delay = time - self.time
                histogram[delay] = histogram.get(delay, 0) + 1
                push(self, time, event)
            return counting_push

        for sched, push in originals.items():
            sched.push = counting(push)
        try:
            yield histogram
        finally:
            for sched, push in originals.items():
                sched.push = push

    def __init__(self, scheduler: Union[str, Scheduler, None] = None) -> None:
        #: Current simulation time in DRAM cycles.  A plain attribute on
        #: purpose: this is the single most-read value in the simulator
        #: and a property costs a descriptor call per read.  Only the run
        #: loop writes it.
        self.now: int = 0
        self._scheduler: Scheduler = create_scheduler(scheduler)
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: This engine's trace recorder (``None`` = tracing off).  Purely
        #: observational: recording never schedules events or mutates
        #: simulated state, so results are bit-identical either way.
        self.tracer = Engine.default_tracer
        #: Identity of this engine on a shared trace timeline.
        self.trace_id: int = Engine._next_trace_id
        Engine._next_trace_id += 1
        #: High-water marks of this engine's scheduler counters already
        #: folded into :attr:`_global_occupancy` (see :meth:`run`).
        self._occ_enqueued_folded: int = 0
        self._occ_cycles_folded: int = 0

    @property
    def scheduler(self) -> Scheduler:
        """The priority structure backing this engine (read-only)."""
        return self._scheduler

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events currently waiting in the queue (cancelled
        handles still count until their cycle comes up)."""
        return len(self._scheduler)

    def schedule(self, delay: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative integral number of cycles; a
        fractional delay raises :class:`SimulationError` (it would
        otherwise silently land on the wrong cycle).  A delay of zero runs
        the callback later in the current cycle, after already-queued
        events for this cycle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        time = self.now + delay
        if type(time) is not int:
            time = _integral_time(time, f"delay {delay!r}")
        self._scheduler.push(time, callback)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current cycle is {self.now}"
            )
        if type(time) is not int:
            time = _integral_time(time, f"delay {time - self.now!r}")
        self._scheduler.push(time, callback)

    def schedule_cancellable(
        self, delay: int, callback: Callable[[], Any]
    ) -> EventHandle:
        """Like :meth:`schedule`, returning a cancellable handle.

        ``handle.cancel()`` retracts the event in O(1) without touching
        the priority structure; a cancelled event's callback is skipped
        when its cycle arrives (the empty dispatch slot still counts as an
        executed event, like the fire-and-bail wakeups it replaces).  Use
        this for timeout/wakeup events usually superseded before firing.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        time = self.now + delay
        if type(time) is not int:
            time = _integral_time(time, f"delay {delay!r}")
        handle = EventHandle(callback)
        self._scheduler.push(time, handle)
        return handle

    def reschedule(self, handle: EventHandle, delay: int) -> EventHandle:
        """Supersede ``handle`` with a fresh one ``delay`` from now.

        Cancels the old handle and schedules its callback again.  The
        handle is required: ``None`` raises :class:`SimulationError`.
        """
        if handle is None:
            raise SimulationError("reschedule() needs a handle to supersede")
        handle.cancel()
        return self.schedule_cancellable(delay, handle.fn)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once the next event's timestamp exceeds ``until``
            (the clock is then advanced to ``until``).  Must be an integral
            cycle no earlier than ``now``: the clock never moves backwards.
        max_events:
            Safety valve for runaway simulations; executes at most
            ``max_events`` events, then raises :class:`SimulationError`
            if work is still pending (a run that finishes in exactly
            ``max_events`` events returns normally).

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        if until is not None:
            if type(until) is not int:
                until = _integral_time(until, f"run(until={until!r})")
            if until < self.now:
                raise SimulationError(
                    f"run(until={until}) is before the current cycle "
                    f"{self.now}; the clock cannot move backwards"
                )
        self._running = True
        self._stopped = False
        executed = 0
        sched = self._scheduler
        budget = -1
        if max_events is not None:
            # The historical loop checked `executed >= max_events` after
            # each event, so a non-positive budget still ran one event.
            budget = max_events if max_events > 0 else 1
        # Event dispatch allocates heavily (messages, flights, requests),
        # and pausing the cyclic collector for the drain removes periodic
        # whole-heap scans from the hot loop.  That is safe because the
        # hot-path objects form no reference cycles: reference counting
        # frees each one as soon as its round trip ends, so nothing piles
        # up while the collector is off.  tests/test_acyclic_hot_path.py
        # enforces this.  Purely an allocator setting: simulation order
        # and results are unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        next_batch = sched.next_batch
        aborted = False
        try:
            while True:
                batch = next_batch(until)
                if batch is None:
                    break
                self.now = sched.time
                # Drain this cycle's FIFO by index; same-cycle schedules
                # append to `batch`, so `len(batch)` is re-read every
                # iteration.  Without a budget `stop_at` is negative and
                # never matches.
                stop_at = budget - executed
                i = 0
                while i < len(batch):
                    event = batch[i]
                    i += 1
                    if event.__class__ is EventHandle:
                        # A cancelled handle is dropped here, but still
                        # counts as a dispatched event: it occupied a queue
                        # slot and a dispatch turn, exactly like the
                        # fire-and-bail wakeup events this mechanism
                        # replaced (keeping event accounting comparable).
                        if not event.cancelled:
                            event.fn()
                    else:
                        event()
                    if self._stopped or i == stop_at:
                        break
                else:
                    executed += i
                    continue
                # Stopped mid-batch: keep the unconsumed remainder queued;
                # a later run() resumes exactly where this one left off.
                executed += i
                aborted = True
                sched.abort(i)
                if executed == budget and not self._stopped and len(sched):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "simulation is probably not converging"
                    )
                break
            if (until is not None and self.now < until
                    and (not aborted or not len(sched))):
                self.now = sched.time = until
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self._events_executed += executed
            totals = Engine._global_occupancy.get(sched.name)
            if totals is None:
                totals = Engine._global_occupancy[sched.name] = {
                    "events_enqueued": 0, "cycles_started": 0, "max_batch": 0,
                }
            # Fold this engine's not-yet-folded scheduler counters into
            # the process totals.  High-water marks (rather than a
            # run-start snapshot) also credit events scheduled *before*
            # run() and survive multiple run() calls without double
            # counting.
            totals["events_enqueued"] += (
                sched.events_enqueued - self._occ_enqueued_folded
            )
            totals["cycles_started"] += (
                sched.cycles_started - self._occ_cycles_folded
            )
            self._occ_enqueued_folded = sched.events_enqueued
            self._occ_cycles_folded = sched.cycles_started
            if sched.max_batch > totals["max_batch"]:
                totals["max_batch"] = sched.max_batch
            Engine._global_events_executed += executed
            if self.tracer:
                # Purely observational: lets the profiler use the exact
                # final clock as its utilization denominator instead of
                # approximating runtime from the last event timestamp.
                self.tracer.note_runtime(self.trace_id, self.now)
        return self.now
