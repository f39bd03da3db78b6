"""Host model.

The host's role in the simulated pool is deliberately small — BEACON's whole
point is to keep data off the host — but it matters in three places:

* **Coherence detour** (Fig. 9 (a)/(c)): without the memory access
  optimization, every access to an unmodified CXL-DIMM crosses the host
  root complex both ways.  The detour's cost is the host's internal bus
  (finite bandwidth + processing latency) plus the extra host-link hops.
* **Framework endpoint**: memory allocation/de-allocation requests originate
  here (Section IV-C's workflow).
* **Baseline memory controller**: MEDAL/NEST inter-DIMM traffic is
  host-mediated on the DDR channels.
"""

from __future__ import annotations

from repro.cxl.link import Link, LinkParams
from repro.sim.component import Component


class Host(Component):
    """Host root complex: an internal forwarding bus plus bookkeeping."""

    def __init__(
        self,
        engine,
        name: str,
        parent,
        bus_params: LinkParams,
    ) -> None:
        super().__init__(engine, name, parent)
        #: Internal forwarding path every host-detoured message crosses.
        self.bus = Link(engine, f"{name}.bus", self, bus_params,
                        role="host_bus")
        #: Coherence-detour crossings (a tally, pulled into the scope).
        self.detour_messages = 0
        self.stats.pull = self._pull_stats

    def _pull_stats(self) -> None:
        if self.detour_messages:
            self.stats.counters["detour_messages"] = float(
                self.detour_messages)

    def record_detour(self) -> None:
        """Account one coherence-detour crossing (for the Fig. 9 analysis)."""
        self.detour_messages += 1
        tracer = self.engine.tracer
        if tracer:
            tracer.instant("cxl", "host_detour", self.path, self.now,
                           pid=self.engine.trace_id)
