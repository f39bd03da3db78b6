"""Processing Engines.

The PEs are multi-purpose fixed-function ASIC blocks (Fig. 5 (d)): an
FM-index engine, a Hash-index engine, a KMC engine, and a DNA pre-alignment
engine behind a shared task interface.  All PEs of one NDP module are
identical, so the pool models them as a counting resource: a PE is occupied
exactly while a task computes on it, and switches to another task whenever
the current one waits on memory (Section IV-B's task switching).
"""

from __future__ import annotations

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
        self._counters = self.stats.counters
        #: ``compute_cycles.<algorithm>`` counter keys, built once per
        #: algorithm instead of once per compute step.  Keyed by the
        #: member's ``_value_`` string: ``Enum.__hash__`` is a Python
        #: function, a str hashes in C (and caches its hash).
        self._compute_keys = {
            algorithm._value_: f"compute_cycles.{algorithm.value}"
            for algorithm in Algorithm
        }

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
        counters = self._counters
        counters["compute_cycles"] += cycles
        counters[self._compute_keys[algorithm._value_]] += cycles

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
