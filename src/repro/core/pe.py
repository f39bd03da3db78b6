"""Processing Engines.

The PEs are multi-purpose fixed-function ASIC blocks (Fig. 5 (d)): an
FM-index engine, a Hash-index engine, a KMC engine, and a DNA pre-alignment
engine behind a shared task interface.  All PEs of one NDP module are
identical, so the pool models them as a counting resource: a PE is occupied
exactly while a task computes on it, and switches to another task whenever
the current one waits on memory (Section IV-B's task switching).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import Algorithm
from repro.sim.component import Component


class PePool(Component):
    """``num_pes`` interchangeable PEs of one NDP module."""

    def __init__(self, engine, name: str, parent, num_pes: int) -> None:
        super().__init__(engine, name, parent)
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        self.busy = 0
        self._busy_area = 0.0       # sum of (busy PEs x cycles), for utilization
        self._last_change = 0
        #: Compute-cycle tallies, pulled into the scope as
        #: ``compute_cycles`` and ``compute_cycles.<algorithm>``.  The
        #: running algorithm's share accumulates in ``_algorithm_cycles``
        #: and is folded into ``_cycles_by_algorithm`` (in first-use order)
        #: when another algorithm computes, so a step compares members by
        #: identity and hashes nothing.
        self.compute_cycles = 0
        self._algorithm: Optional[Algorithm] = None
        self._algorithm_cycles = 0
        self._cycles_by_algorithm: Dict[Algorithm, int] = {}
        self.stats.pull = self._pull_stats

    def _fold_algorithm(self) -> None:
        if self._algorithm is not None:
            self._cycles_by_algorithm[self._algorithm] = self._algorithm_cycles

    def _pull_stats(self) -> None:
        if self._algorithm is None:
            return
        self._fold_algorithm()
        counters = self.stats.counters
        # repro: allow[int-cycle-arithmetic] -- the reporting copy of the
        # int tally; timing never reads it back.
        counters["compute_cycles"] = float(self.compute_cycles)
        for algorithm, cycles in self._cycles_by_algorithm.items():
            # repro: allow[int-cycle-arithmetic] -- as above, per algorithm.
            counters[f"compute_cycles.{algorithm.value}"] = float(cycles)

    def _account(self) -> None:
        now = self.engine.now
        self._busy_area += self.busy * (now - self._last_change)
        self._last_change = now

    @property
    def available(self) -> int:
        return self.num_pes - self.busy

    def acquire(self) -> bool:
        """Claim a PE; returns False when all are busy."""
        if self.busy >= self.num_pes:
            return False
        self._account()
        self.busy += 1
        if self.engine.tracer:
            self._trace_occupancy()
        return True

    def release(self) -> None:
        if self.busy <= 0:
            raise RuntimeError(f"{self.path}: release without acquire")
        self._account()
        self.busy -= 1
        if self.engine.tracer:
            self._trace_occupancy()

    def _trace_occupancy(self) -> None:
        """Emit the busy-PE counter track (a live utilization timeline).

        Called only when a tracer is installed.  ``total`` rides along so
        the profiler can turn the track into a utilization fraction without
        out-of-band knowledge of the pool size (and Perfetto stacks the two
        series into a fill gauge).
        """
        engine = self.engine
        engine.tracer.counter("ndp", "pes_busy", self.path, engine.now,
                              {"busy": self.busy, "total": self.num_pes},
                              pid=engine.trace_id)

    def record_compute(self, algorithm: Algorithm, cycles: int) -> None:
        """Account one compute step (drives the compute-energy term)."""
        self.compute_cycles += cycles
        if algorithm is not self._algorithm:
            self._fold_algorithm()
            self._algorithm = algorithm
            self._algorithm_cycles = self._cycles_by_algorithm.get(
                algorithm, 0)
        self._algorithm_cycles += cycles

    @property
    def total_compute_cycles(self) -> float:
        return self.stats.get("compute_cycles")

    def utilization(self, end_cycle: int) -> float:
        """Mean fraction of PEs busy over the run."""
        if end_cycle <= 0:
            return 0.0
        area = self._busy_area + self.busy * (end_cycle - self._last_change)
        # repro: allow[int-cycle-arithmetic] -- derived reporting metric: a
        # post-run float utilization for reports, never fed back into timing.
        return area / (self.num_pes * end_cycle)
