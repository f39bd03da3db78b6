"""Serializing fabric links.

A :class:`Link` is one direction of a point-to-point channel: transfers
serialize at the link bandwidth, then arrive after the propagation latency.
The same class models CXL buses, host DDR channels (for the baselines), and
the internal Switch-Bus; only the parameters differ.  Idealized
communication — the "infinite bandwidth and zero latency" configuration of
Fig. 3 — is a link with :data:`IDEAL_LINK_PARAMS`.

The link holds the wire's state (when it frees up, its tallies);
:meth:`repro.cxl.packer.PackedChannel.send` is the one code path that puts
bytes on it.  Several channels may share one link (a DDR multidrop bus).
Transfers serialize in submission order: the Bus Controllers arbitrate
fairly, which FIFO order approximates.

Energy is accrued per wire byte (pJ/B), following the off-chip interconnect
energy numbers of CACTI-IO / Keckler et al. that the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.component import Component


@dataclass(frozen=True)
class LinkParams:
    """Bandwidth/latency/energy of one link direction."""

    #: Serialization bandwidth in bytes per DRAM cycle (1.25 ns).  A CXL x8
    #: PCIe5 port moves 32 GB/s = 40 B/cycle; a DDR4-1600 channel 12.8 GB/s
    #: = 16 B/cycle.
    bytes_per_cycle: float
    #: Propagation + protocol latency in cycles.
    latency_cycles: int
    #: Transfer energy in picojoules per byte.
    pj_per_byte: float = 0.0
    #: Infinite-bandwidth flag (idealized communication).
    ideal: bool = False

    def __post_init__(self) -> None:
        if not self.ideal and self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be non-negative")
        if type(self.latency_cycles) is not int:
            raise ValueError(
                f"latency_cycles must be an int, got {self.latency_cycles!r}"
            )


#: Fig. 3's imaginary idealized communication: instant data delivery.
IDEAL_LINK_PARAMS = LinkParams(bytes_per_cycle=1.0, latency_cycles=0,
                               pj_per_byte=0.0, ideal=True)


class Link(Component):
    """One direction of a point-to-point channel.

    ``role`` labels what the link physically is — ``"cxl_link"`` (a CXL
    port), ``"switch_bus"``, ``"host_bus"``, ``"ddr_bus"``, or the generic
    default ``"link"`` — and rides along in every ``xfer`` trace span so
    the latency-attribution stitcher can split wire time by fabric layer
    without a side-channel topology map.
    """

    def __init__(self, engine, name: str, parent, params: LinkParams,
                 role: str = "link") -> None:
        super().__init__(engine, name, parent)
        self.params = params
        self.role = role
        #: Cycle after which a new transfer would start serializing.  A
        #: plain attribute: every send reads and advances it.
        self.free_at = 0
        #: Per-transfer tallies, advanced by ``PackedChannel.send`` and
        #: pulled into the scope as ``messages``, ``wire_bytes``,
        #: ``energy_pj`` and (not on an ideal link) ``busy_cycles``.
        self.messages = 0
        self.wire_bytes = 0
        self.energy_pj = 0.0
        self.busy_cycles = 0
        self.stats.pull = self._pull_stats

    def _pull_stats(self) -> None:
        # Every transfer writes all four (an ideal link has no
        # serialization), so an idle link still reports no counters.
        if self.messages:
            counters = self.stats.counters
            counters["messages"] = float(self.messages)
            counters["wire_bytes"] = float(self.wire_bytes)
            counters["energy_pj"] = self.energy_pj
            if not self.params.ideal:
                counters["busy_cycles"] = float(self.busy_cycles)

    def utilization(self, end_cycle: int) -> float:
        """Fraction of cycles spent serializing, up to ``end_cycle``."""
        if end_cycle <= 0:
            return 0.0
        return min(1.0, self.stats.get("busy_cycles") / end_cycle)
