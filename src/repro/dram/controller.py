"""DIMM memory controller with FR-FCFS scheduling.

One controller fronts one DIMM.  Architecturally the controller logic lives
in different places per system — on the CXLG-DIMM's NDP module in BEACON-D,
in the CXL-Switch's Switch-Logic for unmodified DIMMs, on the buffer device
of MEDAL/NEST DDR-DIMMs — but the scheduling behaviour is identical; *where*
it lives only changes the communication path requests take to reach it,
which the topology layer models.

Scheduling policy: FR-FCFS (first-ready, first-come-first-served) — among
queued requests whose banks and chips can accept a command now, prefer row
hits, then age.  ``policy="fcfs"`` disables the row-hit bypass for the
ablation study.

This module is the simulator's hottest code path.  The request queue is a
plain list: one scheduling pass plans the first ``SCHED_WINDOW`` entries,
issues the pick with ``list.pop`` and plans again.  The DIMM owns the bank
and bus state: the controller asks it for a timing plan per queued request
and commits the one it issues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.dram.dimm import Dimm
from repro.dram.request import MemoryRequest
from repro.sim.component import Component

#: A timing plan from :meth:`Dimm.plan_access`:
#: ``(start, pre_data, activate, row_state)``.  ``start`` is
#: now-independent: the earliest cycle the bank/bus state permits, ignoring
#: the current time; the effective start of an issue is ``max(now, start)``.
Plan = Tuple[int, int, bool, str]


class DimmController(Component):
    """Request scheduler + bank timing orchestrator for one DIMM."""

    #: Cap on how deep FR-FCFS searches the queue for a ready row hit; real
    #: controllers bound the associative search the same way.
    SCHED_WINDOW = 8

    def __init__(
        self,
        engine,
        name: str,
        parent,
        dimm: Dimm,
        queue_capacity: int = 64,
        policy: str = "frfcfs",
    ) -> None:
        super().__init__(engine, name, parent)
        if policy not in ("frfcfs", "fcfs"):
            raise ValueError(f"unknown policy {policy!r}")
        if queue_capacity <= 0:
            raise ValueError(
                f"queue_capacity must be positive, got {queue_capacity}"
            )
        self.dimm = dimm
        self.policy = policy
        #: Admitted requests in arrival order, at most ``queue_capacity``.
        self.queue: List[MemoryRequest] = []
        self.queue_capacity = queue_capacity
        #: Requests waiting for queue space (admitted FIFO as slots free up).
        self._waiters: Deque[MemoryRequest] = deque()
        self._wake_at: Optional[int] = None
        #: Live handle for the pending scheduling pass; superseding an
        #: already-scheduled later pass cancels it outright instead of
        #: letting a stale event fire and bail.
        self._wake_handle = None
        #: The issue path updates four counters per request; it writes the
        #: scope's dict directly rather than paying a ``stats.add`` call each.
        self._counters = self.stats.counters
        # Per-DIMM constants hoisted out of the issue path (both the
        # timing and geometry dataclasses are frozen for the DIMM's life).
        self._tbl = dimm.timing.tbl
        self._burst_bytes_per_chip = dimm.geometry.burst_bytes_per_chip
        self._sched = engine.scheduler

    # -- submission -------------------------------------------------------------

    def submit_when_possible(self, request: MemoryRequest) -> None:
        """Queue a request, parking it until the controller has space.

        This is what the I/O buffers in front of the MCs do (Section IV-B):
        remote requests "wait at the MCs to be issued out" rather than being
        dropped, so callers never need to poll.
        """
        if request.coord is None:
            raise ValueError("request must be address-mapped before submission")
        self.dimm.validate_group(request.coord.chips_per_group)
        if request.issued_at is None:
            request.issued_at = self.engine.now
        if request.mc_enqueued_at is None:
            request.mc_enqueued_at = self.engine.now
        self.dimm.refresh.notify_activity()
        if len(self.queue) < self.queue_capacity and not self._waiters:
            self.queue.append(request)
            self.stats.add("accepted", 1)
            self._wake(0)
        else:
            self._waiters.append(request)
            self.stats.add("parked", 1)
            tracer = self.engine.tracer
            if tracer:
                tracer.instant(
                    "dram", "queue_full", self.path, self.engine.now,
                    pid=self.engine.trace_id,
                    args={"waiting": len(self._waiters)},
                )

    @property
    def pending(self) -> int:
        return len(self.queue) + len(self._waiters)

    # -- scheduling ---------------------------------------------------------------

    def _wake(self, delay: int) -> None:
        """Schedule a scheduling pass, collapsing redundant wakeups.

        An already-pending pass at or before ``target`` covers this wakeup;
        a pending *later* pass is cancelled (O(1) via its handle) and
        replaced, so superseded wakeups never reach the event loop.
        """
        target = self.engine.now + delay
        if self._wake_at is not None:
            if self._wake_at <= target:
                return
            self._wake_handle.cancel()
        self._wake_at = target
        self._wake_handle = self.engine.schedule_cancellable(
            delay, self._schedule_pass
        )

    def _schedule_pass(self) -> None:
        """Issue every request FR-FCFS finds ready now, then wake at the
        earliest start among those left in the window.

        The pick is the first ready row hit in the window, else the first
        ready request (``policy="fcfs"``: the first ready request).  Each
        issue frees a slot for the oldest parked waiter.
        """
        self._wake_at = None
        self._wake_handle = None
        now = self.engine.now
        queue = self.queue
        waiters = self._waiters
        capacity = self.queue_capacity
        window = self.SCHED_WINDOW
        plan_access = self.dimm.plan_access
        prefer_hits = self.policy == "frfcfs"
        while queue:
            pick = -1
            pick_plan = None
            min_start = None
            for i, request in enumerate(queue[:window]):
                plan = plan_access(request.coord, request.is_write)
                start = plan[0]
                if start <= now:
                    if not plan[2] or not prefer_hits:  # row hit, or FCFS
                        pick, pick_plan = i, plan
                        break
                    if pick < 0:
                        pick, pick_plan = i, plan
                elif min_start is None or start < min_start:
                    min_start = start
            if pick < 0:
                self._wake(max(1, min_start - now))
                return
            self._issue(queue.pop(pick), pick_plan)
            while waiters and len(queue) < capacity:
                queue.append(waiters.popleft())
                self.stats.add("accepted", 1)

    # -- issue ---------------------------------------------------------------------

    def _issue(self, request: MemoryRequest, plan: Plan) -> None:
        start, pre_data, activate, row_state = plan
        engine = self.engine
        now = engine.now
        if start < now:
            start = now  # plan start is now-independent
        coord = request.coord
        dimm = self.dimm
        chips = coord.chips_per_group
        group_bytes = self._burst_bytes_per_chip * chips
        bursts = -(-request.size // group_bytes)
        transfer_cycles = bursts * self._tbl
        finish = dimm.commit_access(coord, start, pre_data, transfer_cycles,
                                    activate, request.is_write)
        tracer = engine.tracer
        if tracer and tracer.wants("dram"):
            # The span covers the full service window [start, finish) —
            # completion is scheduled at ``finish`` — so the profiler's
            # queue/service/response phase boundaries meet exactly.
            op = "WR" if request.is_write else "RD"
            enq = request.mc_enqueued_at
            tracer.complete(
                "dram", f"ACT+{op}" if activate else op, self.path,
                start, finish - start,
                pid=self.engine.trace_id,
                args={
                    "row_state": row_state, "rank": coord.rank,
                    "bank": coord.bank, "row": coord.row,
                    "chips": chips, "bursts": bursts,
                    "queue_depth": len(self.queue) + len(self._waiters),
                    "req": request.req_id, "task": request.task_id,
                    "wait": start - enq if enq is not None else 0,
                },
            )
        if activate:
            dimm.energy.on_activate(chips=chips)
        dimm.chip_counters.record(coord.rank, coord.chip_group, chips, bursts)
        dimm.energy.on_burst(chips, bursts, request.is_write)
        # Inlined counter updates (four per issued request), keys created
        # lazily on the first issue exactly as ``stats.add`` would.
        counters = self._counters
        if "issued" not in counters:
            counters["issued"] = 0.0
            counters["bursts"] = 0.0
            counters["bytes_accessed"] = 0.0
            counters["useful_bytes"] = 0.0
        counters["issued"] += 1
        counters["bursts"] += bursts
        counters["bytes_accessed"] += bursts * group_bytes
        counters["useful_bytes"] += request.size
        self.stats.record("service_cycles", finish - now)
        # The completion cycle is known now: stamp it and schedule the
        # request's bound completion method instead of a per-request lambda.
        # ``finish`` is integral and not before ``now`` by construction
        # (integer timings, ``start >= now``), so it goes straight onto
        # the scheduler.
        request.completed_at = finish
        self._sched.push(finish, request.fire_completion)
