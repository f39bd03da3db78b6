"""Pluggable event schedulers for the discrete-event engine.

The engine keeps its pending events in a :class:`Scheduler`, so the
priority structure can be swapped without touching engine semantics:

* :class:`HeapScheduler` (``"heap"``) — the reference: one binary heap of
  ``(time, seq, event)`` triples, the engine's historical structure and
  the oracle every other implementation is checked against.
* :class:`CalendarScheduler` (``"wheel"``, the default) — a ring timing
  wheel of :data:`WHEEL_SLOTS` per-cycle FIFO lists covering
  ``[base, base + WHEEL_SLOTS)`` plus a ``(time, seq)`` overflow heap for
  later events.  A push into the window is one list append; advancing to
  the next populated cycle scans forward over the ring (populated cycles
  are about two cycles apart on the benched figures) or, when the window
  is empty, jumps straight to the overflow's earliest cycle.  As the
  window advances, overflow events whose cycle enters it move into their
  slots before that cycle's first event runs, so FIFO order holds across
  the ring edge.  The size is a constant: 99.9% of quick-scale fig15's
  delays are at most 1024 cycles; refresh (6240) is the longest.

Both implement one *batched dispatch* protocol, one call per populated
cycle::

    batch = sched.next_batch(limit)  # live FIFO list of the next populated
                                     # cycle <= limit (None: no such cycle);
                                     # sched.time is now that cycle
    ...                              # engine drains batch by index; a push
                                     # for sched.time appends to batch
    sched.abort(i)                   # only if the drain stopped early after
                                     # i events: the rest stays queued

The next ``next_batch`` call retires the drained batch (or resumes an
aborted one).  Events pushed for the current cycle while its batch drains
append to the same live list, which reproduces the heap's ``(time, seq)``
pop order exactly; the parity suite (``tests/test_scheduler_parity.py``)
asserts identical dispatch order and identical result digests on every
benched figure.

``push`` is the only way in: the engine's ``schedule*`` methods validate
and then push, and hot components whose arrival cycles are integral and
not in the past by construction (link arrivals, DRAM completions) push
directly.  ``Engine.record_delay_histogram`` counts delays by swapping
``push`` on the scheduler classes, so every path is counted and nothing
is paid while it is off.

Scheduler choice: ``Engine(scheduler=...)`` accepts a registry name or a
ready instance; the ``REPRO_SCHEDULER`` environment variable selects the
process-wide default (``wheel`` when unset).

Events themselves are *slim*: a bucket entry is either a bare callable
(zero bookkeeping allocated per event) or an :class:`EventHandle` — a
slotted two-field record returned by ``Engine.schedule_cancellable`` that
supports O(1) cancellation without removing anything from the priority
structure (the engine skips cancelled handles when their cycle arrives).
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Union


class EventHandle:
    """A cancellable scheduled event (see ``Engine.schedule_cancellable``).

    Slotted and minimal on purpose: the hot path stores bare callables in
    the scheduler buckets, and only call sites that may need to retract or
    supersede an event (controller wakeups, packer flush timers) pay for a
    handle.  Cancellation is O(1): the handle is flagged and the engine
    drops it, without running the callback, when its cycle comes up.
    """

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Retract the event; a no-op if it already ran or was cancelled."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """Whether the event can still fire."""
        return not self.cancelled


#: A scheduler bucket entry: a bare callback or a cancellable handle.
Event = Union[Callable[[], None], EventHandle]


class Scheduler:
    """Interface between the engine and a priority structure of events.

    The engine drives a scheduler through the batched dispatch protocol
    in the module docstring: :meth:`next_batch` once per populated cycle,
    :meth:`abort` when a drain stops early (``stop()``/``max_events``).

    ``push`` must preserve FIFO order among events pushed for the same
    cycle — that ordering *is* the simulator's determinism contract —
    and may assume ``time`` is an ``int`` no earlier than :attr:`time`.
    """

    #: Registry key (subclasses set their own).
    name = "abstract"

    #: The current cycle: the one the last :meth:`next_batch` returned, or
    #: wherever the engine parked its clock (``run(until=...)``).  Always
    #: equal to the owning engine's ``now``.
    time = 0

    def push(self, time: int, event: Event) -> None:
        raise NotImplementedError

    def next_batch(self, limit: Optional[int]) -> Optional[List[Event]]:
        """Retire the drained batch, then return the live FIFO list of the
        next populated cycle, or ``None`` if there is none at or before
        ``limit`` (``None``: no limit)."""
        raise NotImplementedError

    def abort(self, consumed: int) -> None:
        """The current batch stopped after ``consumed`` events: keep the
        rest queued so the next :meth:`next_batch` resumes this cycle."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- occupancy accounting (sampled when a batch is handed out) ------------

    cycles_started = 0
    events_enqueued = 0
    max_batch = 0

    def occupancy(self) -> Dict[str, object]:
        """Cheap occupancy statistics for the perf harness.

        ``max_batch`` is the largest batch observed *when handed out*
        (same-cycle events appended mid-drain are counted in
        ``events_enqueued`` but not re-sampled), ``avg_batch`` the mean
        events dispatched per populated cycle.
        """
        cycles = self.cycles_started
        return {
            "scheduler": self.name,
            "events_enqueued": self.events_enqueued,
            "cycles_started": cycles,
            "max_batch": self.max_batch,
            "avg_batch": (self.events_enqueued / cycles) if cycles else 0.0,
        }


class HeapScheduler(Scheduler):
    """Reference scheduler: one binary heap of ``(time, seq, event)``.

    This is the engine's historical data structure, kept as the oracle
    the timing wheel is verified against.  :meth:`next_batch` pops every
    entry of the minimum timestamp into the live batch in one go; pushes
    for the current cycle append to that batch directly (their sequence
    numbers would have ordered them after every already-popped entry
    anyway, so FIFO order is preserved exactly).
    """

    name = "heap"

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._batch: List[Event] = []
        self._held = False

    def push(self, time: int, event: Event) -> None:
        self.events_enqueued += 1
        if self._batch and time == self.time:
            self._batch.append(event)
            return
        self._seq += 1
        heappush(self._heap, (time, self._seq, event))

    def next_batch(self, limit: Optional[int]) -> Optional[List[Event]]:
        batch = self._batch
        held, self._held = self._held, False
        if not (held and batch):
            # Retire the drained batch (or an aborted one's empty rest).
            batch.clear()
            heap = self._heap
            if not heap:
                return None
            time = heap[0][0]
            if limit is not None and time > limit:
                return None
            while heap and heap[0][0] == time:
                batch.append(heappop(heap)[2])
            self.time = time
        self.cycles_started += 1
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)
        return batch

    def abort(self, consumed: int) -> None:
        del self._batch[:consumed]
        self._held = True

    def __len__(self) -> int:
        return len(self._heap) + len(self._batch)


#: Cycles the timing wheel's ring covers; later events wait in its
#: overflow heap.  A power of two, so a cycle's slot is ``time & _MASK``.
WHEEL_SLOTS = 1024
_MASK = WHEEL_SLOTS - 1


class CalendarScheduler(Scheduler):
    """Ring timing wheel: :data:`WHEEL_SLOTS` per-cycle FIFO lists plus
    an overflow heap.

    ``_slots[t & _MASK]`` holds cycle ``t``'s events in push order for
    every ``t`` in ``[_base, _base + WHEEL_SLOTS)``; ``_overflow`` is a
    ``(time, seq, event)`` heap of everything later.  ``_base`` is the
    cycle of the last batch handed out, and the invariant "overflow only
    holds cycles past the window" is restored every time it moves, before
    the new cycle's batch is returned.  So an event can only reach a slot
    after every earlier-pushed event of its cycle, and pop order equals
    :class:`HeapScheduler`'s ``(time, seq)`` order by construction.

    ``len()`` is ``events_enqueued`` minus the events retired from
    batches: exact between cycles and O(1).
    """

    name = "wheel"

    def __init__(self) -> None:
        self._slots: List[List[Event]] = [[] for _ in range(WHEEL_SLOTS)]
        self._overflow: List[tuple] = []
        self._seq = 0
        self._base = 0
        #: ``_base + WHEEL_SLOTS``: the first cycle that overflows.
        self._horizon = WHEEL_SLOTS
        #: The batch handed out by the last ``next_batch``, until retired.
        self._batch: Optional[List[Event]] = None
        #: Events retired from batches (dispatched, or cancelled handles).
        self._retired = 0

    def push(self, time: int, event: Event) -> None:
        self.events_enqueued += 1
        if time < self._horizon:
            self._slots[time & _MASK].append(event)
        else:
            self._seq += 1
            heappush(self._overflow, (time, self._seq, event))

    def next_batch(self, limit: Optional[int]) -> Optional[List[Event]]:
        slots = self._slots
        time = self._base
        batch = self._batch
        if batch is not None:
            # The handed-out batch is drained: retire its cycle.
            self._retired += len(batch)
            batch.clear()
            self._batch = None
            time += 1
        horizon = self._horizon
        while time < horizon:
            if slots[time & _MASK]:
                break
            time += 1
        else:
            # Nothing inside the window: jump to the overflow's earliest.
            overflow = self._overflow
            if not overflow:
                return None
            time = overflow[0][0]
        if limit is not None and time > limit:
            return None
        self._base = time
        horizon = self._horizon = time + WHEEL_SLOTS
        overflow = self._overflow
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            slots[entry[0] & _MASK].append(entry[2])
        self.time = time
        batch = self._batch = slots[time & _MASK]
        self.cycles_started += 1
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)
        return batch

    def abort(self, consumed: int) -> None:
        # The remainder stays in the current cycle's slot, and ``_base``
        # stays put, so the next scan starts by handing it out again.
        del self._batch[:consumed]
        self._retired += consumed
        self._batch = None

    def __len__(self) -> int:
        return self.events_enqueued - self._retired


#: Registry of scheduler implementations, keyed by their CLI/env names.
SCHEDULERS: Dict[str, type] = {
    HeapScheduler.name: HeapScheduler,
    CalendarScheduler.name: CalendarScheduler,
}

#: Environment variable selecting the process-wide default scheduler.
SCHEDULER_ENV = "REPRO_SCHEDULER"

#: Used when neither ``Engine(scheduler=...)`` nor the env var chooses.
DEFAULT_SCHEDULER = CalendarScheduler.name


def create_scheduler(choice: Union[str, Scheduler, None] = None) -> Scheduler:
    """Build the scheduler ``Engine`` should use.

    ``choice`` may be a registry name (``"heap"``/``"wheel"``), a ready
    :class:`Scheduler` instance (adopted as-is), or ``None`` — in which
    case the ``REPRO_SCHEDULER`` environment variable decides, falling
    back to :data:`DEFAULT_SCHEDULER`.
    """
    if isinstance(choice, Scheduler):
        return choice
    name = choice or os.environ.get(SCHEDULER_ENV) or DEFAULT_SCHEDULER
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(
            f"unknown scheduler {name!r} (known: {known}); check the "
            f"scheduler argument or the {SCHEDULER_ENV} environment variable"
        ) from None
    return cls()
