"""The NDP module (Fig. 5 (b)): PEs + Task Scheduler + Address Translator
+ I/O buffer, bound to one fabric node.

The same module is instantiated on CXLG-DIMMs (BEACON-D), inside CXL
switches (BEACON-S), and on the customized DDR-DIMMs of the MEDAL/NEST
baselines — the paper uses "the same PEs ... in the NDP baselines and
BEACON" (Section VI-A), and so do we.

Execution loop: a ready task claims a PE and advances through its step
generator.  Compute steps hold the PE; a memory step issues its accesses
through the Address Translator into the pool and parks the task (the PE is
released and immediately redispatched — the paper's task switching).  When
the last operand returns, the Task Scheduler re-queues the task.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.core.address_translator import AddressTranslator
from repro.core.pe import PePool
from repro.core.task import ComputeStep, MemStep, Task
from repro.core.task_scheduler import TaskScheduler
from repro.cxl.flit import MessageKind
from repro.cxl.topology import MemoryPool
from repro.dram.request import MemoryRequest
from repro.memmgmt.regions import RegionMap
from repro.sim.component import Component


class NdpModule(Component):
    """One NDP module at fabric node ``node``."""

    def __init__(
        self,
        engine,
        name: str,
        parent,
        node: str,
        num_pes: int,
        pool: MemoryPool,
        region_map: RegionMap,
    ) -> None:
        super().__init__(engine, name, parent)
        self.node = node
        self.pool = pool
        self.pes = PePool(engine, "pes", self, num_pes)
        self.scheduler = TaskScheduler(engine, "sched", self)
        self.translator = AddressTranslator(engine, "xlat", self, region_map, node)
        self.scheduler.on_ready = self._dispatch
        #: Per-memory-step tallies, pulled into the scope under the same
        #: names (a step writes each only when it adds to it).
        self.mem_requests = 0
        self.local_requests = 0
        self.stats.pull = self._pull_stats
        self.tasks_completed = 0
        #: System-level hook fired on every task completion.
        self.on_task_done: Optional[Callable[[Task], None]] = None
        #: MEDAL-style task migration: DIMM-node -> NdpModule peers.  When
        #: set, a memory step whose data lives on a peer's DIMM ships the
        #: *task* there (one small one-way message) instead of round-tripping
        #: the data — the prior work's answer to the inter-DIMM bottleneck.
        self.migration_peers: Optional[Dict[str, "NdpModule"]] = None
        self._dispatch_pending = False

    def _pull_stats(self) -> None:
        counters = self.stats.counters
        if self.mem_requests:
            counters["mem_requests"] = float(self.mem_requests)
        if self.local_requests:
            counters["local_requests"] = float(self.local_requests)

    # -- task entry -------------------------------------------------------------

    def submit_task(self, task: Task) -> None:
        """Accept a task (typically delivered as a TASK message)."""
        if task.started_at is None:
            task.started_at = self.now
            tracer = self.engine.tracer
            if tracer:
                tracer.async_begin(
                    "ndp", "task", self.path, self.now, task.task_id,
                    pid=self.engine.trace_id,
                    args={"algorithm": task.algorithm.value,
                          "node": self.node},
                )
        self.stats.add("tasks_submitted", 1)
        self.scheduler.push_ready(task)

    # -- dispatch loop -------------------------------------------------------------

    def _dispatch(self) -> None:
        # Collapse bursts of readiness notifications into one pass per cycle.
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.engine.schedule(0, self._dispatch_now)

    def _dispatch_now(self) -> None:
        self._dispatch_pending = False
        ready = self.scheduler.ready
        acquire = self.pes.acquire
        while ready and acquire():
            self._advance(ready.popleft())

    def _bind_task(self, task: Task) -> None:
        """Cache this module's resume/operand callbacks on the task.

        A task advances through thousands of compute resumptions and
        operand returns; binding two partials once per (task, module) pair
        replaces a closure allocation per event.  The operand callback is
        the Task Scheduler's own ``operand_ready``, called with the
        completed request.  Migration hands tasks to a different module,
        so the owner is re-checked at use sites.
        """
        task.cb_owner = self
        task.resume_cb = partial(self._advance, task)
        task.operand_cb = partial(self.scheduler.operand_ready, task)

    def _advance(self, task: Task) -> None:
        """Run the task on its PE until it parks or finishes."""
        try:
            step = next(task.steps)
        except StopIteration:
            self._complete(task)
            return
        if isinstance(step, ComputeStep):
            self.pes.record_compute(task.algorithm, step.cycles)
            tracer = self.engine.tracer
            if tracer and tracer.wants("ndp"):
                tracer.complete(
                    "ndp", "compute", self.pes.path, self.now, step.cycles,
                    pid=self.engine.trace_id,
                    args={"task": task.task_id,
                          "algorithm": task.algorithm.value},
                )
            if task.cb_owner is not self:
                self._bind_task(task)
            self.engine.schedule(step.cycles, task.resume_cb)
            return
        if isinstance(step, MemStep):
            peers = self.migration_peers
            if peers is not None:
                target = self._migration_target(step, peers)
                if target is not None:
                    self._migrate(task, step, target)
                    return
            self._issue_mem_step(task, step)
            return
        raise TypeError(f"unknown step type {type(step).__name__}")

    # -- MEDAL-style task migration ------------------------------------------------

    def _migration_target(
        self, step: MemStep, peers: Dict[str, "NdpModule"]
    ) -> Optional["NdpModule"]:
        """The peer in ``peers`` co-located with this step's data, if any."""
        if not step.accesses:
            return None
        try:
            dimm_index = self.translator.region_map.dimm_of(
                step.accesses[0].addr, self.node
            )
        except KeyError:
            return None
        node = self.pool.dimm_nodes[dimm_index]
        if node == self.node:
            return None
        return peers.get(node)

    def _migrate(self, task: Task, step: MemStep, target: "NdpModule") -> None:
        """Ship the task (sequence + state, one small message) to ``target``."""
        self.stats.add("task_migrations", 1)
        tracer = self.engine.tracer
        if tracer:
            tracer.instant(
                "ndp", "migrate", self.path, self.now,
                pid=self.engine.trace_id,
                args={"task": task.task_id, "to": target.node},
            )
        self.pes.release()
        self._dispatch()
        fabric = self.pool.fabric
        route = fabric.route(self.node, target.node)
        fabric.send(
            route, MessageKind.TASK, task.payload_bytes + 16,
            on_delivered=lambda: target._resume_migrated(task, step),
        )

    def _resume_migrated(self, task: Task, step: MemStep) -> None:
        """Continue a migrated task here: run its pending memory step.

        No PE is held at this point — the task claims one of *this*
        module's PEs through the normal dispatch path once its operands
        return.
        """
        self.stats.add("tasks_received", 1)
        self._issue_mem_step(task, step, holds_pe=False)

    def _issue_mem_step(self, task: Task, step: MemStep, holds_pe: bool = True) -> None:
        accesses = step.accesses
        if not accesses:
            if holds_pe:
                # Nothing to wait for; keep running on the same PE.
                self._advance(task)
            else:
                self.scheduler.push_ready(task)
            return
        self.scheduler.park(task, operands=len(accesses))
        tracer = self.engine.tracer
        if tracer:
            tracer.instant(
                "ndp", "stall", self.path, self.now,
                pid=self.engine.trace_id,
                args={"task": task.task_id, "reason": "mem",
                      "operands": len(accesses)},
            )
        if holds_pe:
            # The PE switches to another task while this one waits.
            self.pes.release()
            self._dispatch()
        if task.cb_owner is not self:
            self._bind_task(task)
        operand_cb = task.operand_cb
        self.mem_requests += len(accesses)
        translate = self.translator.translate
        pool = self.pool
        dimm_nodes = pool.dimm_nodes
        node = self.node
        task_id = task.task_id
        local = 0
        for spec in accesses:
            # Positional, in field order (addr, size, kind, data_class,
            # task_id, source, on_complete): matching seven keywords costs
            # about as much as the rest of the construction.
            request = MemoryRequest(
                spec.addr, spec.size, spec.kind, spec.data_class,
                task_id, node, operand_cb,
            )
            translate(request)
            if request.dimm_index is not None and (
                dimm_nodes[request.dimm_index] == node
            ):
                local += 1
            pool.access(request, node)
        if local:
            self.local_requests += local

    def _complete(self, task: Task) -> None:
        task.finished_at = self.now
        # The cached partials hold the task: drop them, so a finished
        # task is freed by reference counting, not left in a cycle.
        task.cb_owner = task.resume_cb = task.operand_cb = None
        self.pes.release()
        self.tasks_completed += 1
        self.stats.add("tasks_completed", 1)
        tracer = self.engine.tracer
        if tracer:
            tracer.async_end("ndp", "task", self.path, self.now,
                             task.task_id, pid=self.engine.trace_id)
        if task.on_done is not None:
            task.on_done(task)
        if self.on_task_done is not None:
            self.on_task_done(task)
        self._dispatch()
