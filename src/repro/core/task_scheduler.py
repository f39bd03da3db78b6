"""Task Scheduler: the incoming/out-going task queues (Fig. 5 (b)).

Tasks waiting for memory operands sit in the **incoming queue** with a
per-task outstanding-operand count (the scoreboard); when the last operand
returns, the task moves to the **out-going queue**, from which the
dispatcher hands tasks to PEs that need work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Set

from repro.core.task import Task
from repro.sim.component import Component


class TaskScheduler(Component):
    """Queues + operand scoreboard for one NDP module."""

    def __init__(self, engine, name: str, parent) -> None:
        super().__init__(engine, name, parent)
        #: The out-going queue, FIFO.  Tasks enter through
        #: :meth:`push_ready`; the owning module's dispatcher pops them.
        self.ready: Deque[Task] = deque()
        self._waiting: Set[int] = set()
        #: Tasks parked on memory operands (a tally, pulled into the scope).
        self.parked = 0
        self.stats.pull = self._pull_stats
        #: Invoked whenever a task becomes ready (the dispatcher hook).
        self.on_ready: Optional[Callable[[], None]] = None

    def _pull_stats(self) -> None:
        if self.parked:
            self.stats.counters["parked"] = float(self.parked)

    # -- out-going queue -----------------------------------------------------------

    def push_ready(self, task: Task) -> None:
        """A new or resumed task is ready for a PE."""
        self.ready.append(task)
        tracer = self.engine.tracer
        if tracer and tracer.wants("ndp"):
            # Marks the park -> ready boundary: the latency profiler splits
            # a task's non-compute time into memory stall (stall -> ready)
            # and PE wait (ready -> next compute) at this instant.
            tracer.instant(
                "ndp", "ready", self.path, self.now,
                pid=self.engine.trace_id,
                args={"task": task.task_id, "queue": len(self.ready)},
            )
        if self.on_ready is not None:
            self.on_ready()

    # -- incoming queue / scoreboard ---------------------------------------------------

    def park(self, task: Task, operands: int) -> None:
        """Task waits for ``operands`` memory responses."""
        if operands <= 0:
            raise ValueError("operands must be positive")
        task.waiting_operands = operands
        self._waiting.add(task.task_id)
        self.parked += 1

    def operand_ready(self, task: Task, _request: object = None) -> None:
        """One of the task's operands arrived ("the data back with local
        destinations are forwarded to the Task Schedulers").

        ``_request`` is the completed request when this is bound as a
        request's ``on_complete`` callback; it is not needed here.
        """
        if task.task_id not in self._waiting:
            raise RuntimeError(f"task {task.task_id} is not parked")
        task.waiting_operands -= 1
        if task.waiting_operands == 0:
            self._waiting.discard(task.task_id)
            self.push_ready(task)

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)

    @property
    def idle(self) -> bool:
        return not self.ready and not self._waiting
