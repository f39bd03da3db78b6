"""Atomic Engines: read-modify-write without data races (Fig. 7).

Parallel k-mer counting hits the classic RMW race: many tasks increment the
same Bloom counter concurrently.  BEACON serializes the arithmetic at the
memory side: an ATOMIC_RMW request travels to the switch that owns the
target DIMM, where an Atomic Engine performs read -> arithmetic -> write
against the DIMM and only then acknowledges the requester.

BEACON-D adds dedicated Atomic Engines to the Switch-Logic; BEACON-S reuses
its in-switch PEs for the arithmetic — structurally both are a bank of
``num_engines`` units in front of the switch's MC, which is what this class
models (the BEACON-S constructor simply passes its PE count).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.cxl.topology import MemoryPool, RmwFlight
from repro.dram.request import AccessKind, MemoryRequest
from repro.sim.component import Component

Respond = Callable[[MemoryRequest], None]


class AtomicEngineBank(Component):
    """``num_engines`` atomic units at one switch node."""

    def __init__(
        self,
        engine,
        name: str,
        parent,
        node: str,
        num_engines: int,
        compute_cycles: int = 4,
    ) -> None:
        super().__init__(engine, name, parent)
        if num_engines <= 0:
            raise ValueError("num_engines must be positive")
        if compute_cycles < 0:
            raise ValueError("compute_cycles must be non-negative")
        self.node = node
        self.num_engines = num_engines
        self.compute_cycles = compute_cycles
        self.busy = 0
        #: RMWs waiting for a free engine, FIFO.
        self._backlog: Deque[RmwFlight] = deque()
        #: RMWs on an engine, in start order.  Every engine takes the same
        #: ``compute_cycles``, so they also finish in this order.
        self._computing: Deque[RmwFlight] = deque()
        #: Per-RMW tallies, pulled into the scope under the same names.
        self.rmw_ops = 0
        self.queued = 0
        self.stats.pull = self._pull_stats

    def _pull_stats(self) -> None:
        counters = self.stats.counters
        if self.rmw_ops:
            counters["rmw_ops"] = float(self.rmw_ops)
        if self.queued:
            counters["queued"] = float(self.queued)

    def perform(self, pool: MemoryPool, request: MemoryRequest, respond: Respond) -> None:
        """Serve one RMW.

        The MC issues the read immediately (many RMWs stay in flight at
        once); an engine is claimed only for the arithmetic window between
        data-return and write-issue (Fig. 7 steps 3-5), so the engines
        bound the *compute* rate, not the memory round trips.
        """
        if request.kind is not AccessKind.ATOMIC_RMW:
            raise ValueError("AtomicEngineBank only serves ATOMIC_RMW requests")
        self.rmw_ops += 1
        RmwFlight(pool, request, self.node, self._claim_engine, respond).start()

    def _claim_engine(self, flight: RmwFlight) -> None:
        """Run the arithmetic on a free engine (FIFO when all busy)."""
        if self.busy >= self.num_engines:
            self._backlog.append(flight)
            self.queued += 1
            return
        self._run_engine(flight)

    def _run_engine(self, flight: RmwFlight) -> None:
        self.busy += 1
        self._computing.append(flight)
        self.engine.schedule(self.compute_cycles, self._engine_done)

    def _engine_done(self) -> None:
        self.busy -= 1
        self._computing.popleft().write()
        if self._backlog:
            self._run_engine(self._backlog.popleft())
