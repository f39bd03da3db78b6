"""CXL switch model.

A switch owns one upstream port (to the host), several downstream ports (to
CXL-DIMMs), and — in BEACON — the added **Switch-Bus** governed by a Bus
Controller, which lets traffic between two components of the same switch
turn around locally instead of travelling up to the host (Section IV-B's
in-switch data routing).  The Switch-Logic (MCs, Data Packers, Atomic
Engines, and for BEACON-S the NDP module) attaches here; its behavioural
pieces live in :mod:`repro.core.switch_logic`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cxl.link import Link, LinkParams
from repro.sim.component import Component


class CxlSwitch(Component):
    """One CXL switch: ports plus the internal Switch-Bus."""

    def __init__(
        self,
        engine,
        name: str,
        parent,
        bus_params: LinkParams,
    ) -> None:
        super().__init__(engine, name, parent)
        #: The Switch-Bus: all in-switch routing (VCS <-> Switch-Logic <->
        #: downstream ports) crosses it once per turn-around.
        self.bus = Link(engine, f"{name}.bus", self, bus_params,
                        role="switch_bus")
        #: Names of DIMM nodes attached below this switch.
        self.dimm_nodes: List[str] = []
        #: Routing table: destination node -> downstream port index (the
        #: Virtual CXL Switch binding).
        self.vcs_table: Dict[str, int] = {}
        #: In-switch turn-arounds (a tally, pulled into the scope).
        self.in_switch_turnarounds = 0
        self.stats.pull = self._pull_stats

    def _pull_stats(self) -> None:
        if self.in_switch_turnarounds:
            self.stats.counters["in_switch_turnarounds"] = float(
                self.in_switch_turnarounds)

    def attach_dimm(self, node_name: str) -> int:
        """Bind a DIMM node to the next downstream port; returns the port."""
        port = len(self.dimm_nodes)
        self.dimm_nodes.append(node_name)
        self.vcs_table[node_name] = port
        return port

    def owns(self, node_name: str) -> bool:
        """Whether ``node_name`` hangs below this switch."""
        return node_name in self.vcs_table

    def record_turnaround(self) -> None:
        """Account one in-switch (host-avoiding) turn-around."""
        self.in_switch_turnarounds += 1
        tracer = self.engine.tracer
        if tracer:
            tracer.instant("cxl", "turnaround", self.path, self.now,
                           pid=self.engine.trace_id)
