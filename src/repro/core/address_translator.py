"""Address Translator (Fig. 5 (b)).

Receives memory requests from the PEs and resolves them against the memory
management framework's region map: which DIMM, which bank/row/column under
that region's mapping scheme — then forwards them toward their destination.
Translation is pipelined with PE compute in hardware, so it adds bookkeeping
but no modelled latency.
"""

from __future__ import annotations

from repro.dram.request import DataClass, MemoryRequest
from repro.memmgmt.regions import RegionMap
from repro.sim.component import Component

#: The fine-grained data classes, for a per-request membership test: a
#: tuple compares members by identity in C, where the ``fine_grained``
#: property is a Python call and a set would run ``Enum.__hash__``.
_FINE_GRAINED = tuple(c for c in DataClass if c.fine_grained)


class AddressTranslator(Component):
    """Region-map resolver bound to one NDP module's fabric node."""

    def __init__(self, engine, name: str, parent, region_map: RegionMap,
                 node: str) -> None:
        super().__init__(engine, name, parent)
        self.region_map = region_map
        self.node = node
        #: Per-request tallies, pulled into the scope under the same names.
        self.translations = 0
        self.fine_grained = 0
        self.stats.pull = self._pull_stats

    def _pull_stats(self) -> None:
        counters = self.stats.counters
        if self.translations:
            counters["translations"] = float(self.translations)
        if self.fine_grained:
            counters["fine_grained"] = float(self.fine_grained)

    def translate(self, request: MemoryRequest) -> MemoryRequest:
        """Fill in ``dimm_index`` + the DRAM coordinates; returns the same
        request."""
        self.region_map.translate(request, requester=self.node)
        self.translations += 1
        if request.data_class in _FINE_GRAINED:
            self.fine_grained += 1
        return request
