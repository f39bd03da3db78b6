"""Pool topologies, routing, and the memory-access fabric.

The systems under study differ mostly in *where computation sits* and *what
path memory traffic takes*:

* **BEACON-D** — PEs on CXLG-DIMMs; remote traffic turns around inside the
  owning CXL switch when the memory access optimization (device bias) is on,
  or detours through the host when it is off (Fig. 9 (a) vs (b)).
* **BEACON-S** — PEs in the switches; same bias behaviour (Fig. 9 (c)/(d)).
* **MEDAL/NEST** — PEs on DDR-DIMMs; every inter-DIMM transfer crosses the
  shared DDR channel twice (in and out) plus the host memory controller,
  which is the communication bottleneck BEACON removes.

A :class:`Fabric` is a tree of named nodes (host at the root, switches or
DDR channels in the middle, DIMMs at the leaves) with a
:class:`~repro.cxl.packer.PackedChannel` per direction per edge and internal
buses inside switches and the host.  :meth:`Fabric.route` walks the tree,
and :meth:`Fabric.round_trip` gives both legs of a round trip from one
lookup; :meth:`MemoryPool.access` runs the full request -> DRAM -> response
round trip including controller backpressure and atomic hand-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cxl.flit import Message, MessageKind
from repro.cxl.host import Host
from repro.cxl.link import IDEAL_LINK_PARAMS, Link, LinkParams
from repro.cxl.packer import PackedChannel
from repro.cxl.switch import CxlSwitch
from repro.dram.controller import DimmController
from repro.dram.dimm import Dimm, DimmKind
from repro.dram.request import READ_REQUEST_PAYLOAD, AccessKind, MemoryRequest
from repro.dram.timing import DimmGeometry, DramTiming
from repro.sim.component import Component


@dataclass(frozen=True)
class CommParams:
    """All communication parameters of one system configuration."""

    #: CXL bus: host<->switch and switch<->DIMM (x8 PCIe5: 32 GB/s).
    cxl_link: LinkParams = LinkParams(bytes_per_cycle=40.0, latency_cycles=40,
                                      pj_per_byte=30.0)
    #: The in-switch Switch-Bus (wide, short).
    switch_bus: LinkParams = LinkParams(bytes_per_cycle=128.0, latency_cycles=6,
                                        pj_per_byte=3.0)
    #: Host root-complex forwarding path (the coherence detour cost).
    host_bus: LinkParams = LinkParams(bytes_per_cycle=64.0, latency_cycles=80,
                                      pj_per_byte=30.0)
    #: Shared DDR channel of the baseline systems (12.8 GB/s).
    ddr_channel: LinkParams = LinkParams(bytes_per_cycle=16.0, latency_cycles=20,
                                         pj_per_byte=25.0)
    #: PE -> local on-DIMM memory controller latency (cycles).
    dimm_local_latency: int = 4
    #: Data Packer enabled (Fig. 6)?
    data_packing: bool = False
    #: Memory access optimization / device bias (Fig. 9)?
    device_bias: bool = False
    #: Data Packer flush timeout in cycles.
    flush_timeout: int = 8
    #: RMW arithmetic latency of a local (same-DIMM NDP) atomic.
    atomic_compute_cycles: int = 4
    #: Replace every link with idealized communication (Fig. 3)?
    ideal: bool = False

    def resolve(self, params: LinkParams) -> LinkParams:
        """Apply the idealized-communication override."""
        return IDEAL_LINK_PARAMS if self.ideal else params

    def idealized(self) -> "CommParams":
        """A copy with infinite-bandwidth, zero-latency communication."""
        return replace(self, ideal=True, dimm_local_latency=0)


@dataclass
class Route:
    """An ordered list of channel hops between two nodes."""

    src: str
    dst: str
    hops: List[PackedChannel]
    via_host: bool

    @property
    def hop_count(self) -> int:
        return len(self.hops)


class Fabric(Component):
    """Tree-structured interconnect with per-edge packed channels."""

    def __init__(self, engine, name: str, parent, comm: CommParams) -> None:
        super().__init__(engine, name, parent)
        self.comm = comm
        self._parent_of: Dict[str, Optional[str]] = {}
        self._channels: Dict[Tuple[str, str], PackedChannel] = {}
        self._internal: Dict[str, PackedChannel] = {}
        self.host: Optional[Host] = None
        self.switches: Dict[str, CxlSwitch] = {}
        #: (src, dst, force_host) -> (route, switches that turn the
        #: traffic around, the route back from ``dst`` to ``src``).
        #: Routes over a fixed topology are pure, so they are computed
        #: once; the per-call *accounting* side effects (host detour /
        #: switch turnaround counters) are replayed from the cached entry.
        #: Cleared whenever the topology grows.
        self._route_cache: Dict[
            Tuple[str, str, bool], Tuple[Route, List[CxlSwitch], Route]
        ] = {}

    # -- construction -------------------------------------------------------------

    def add_host(self, name: str = "host") -> Host:
        self._route_cache.clear()
        self.host = Host(self.engine, name, self, self.comm.resolve(self.comm.host_bus))
        self._parent_of[name] = None
        self._internal[name] = self._make_channel(self.host.bus, f"{name}.buschan")
        return self.host

    def add_switch(self, name: str, uplink: Optional[LinkParams] = None) -> CxlSwitch:
        if self.host is None:
            raise RuntimeError("add_host first")
        self._route_cache.clear()
        switch = CxlSwitch(
            self.engine, name, self, self.comm.resolve(self.comm.switch_bus)
        )
        self.switches[name] = switch
        self._parent_of[name] = self.host.name
        self._internal[name] = self._make_channel(switch.bus, f"{name}.buschan")
        self._connect(self.host.name, name, uplink or self.comm.cxl_link)
        return switch

    def add_ddr_channel_node(self, name: str) -> Link:
        """A DDR channel: a mid-tree node whose *edges* share one bus.

        Returns the shared bus link so callers can attach DIMMs to it.
        The host<->channel edge is free (the channel terminates at the host
        memory controller); the host bus itself models the MC cost.
        """
        if self.host is None:
            raise RuntimeError("add_host first")
        self._route_cache.clear()
        self._parent_of[name] = self.host.name
        shared = Link(
            self.engine, f"{name}.bus", self,
            self.comm.resolve(self.comm.ddr_channel), role="ddr_bus",
        )
        self._connect(self.host.name, name, IDEAL_LINK_PARAMS)
        self._shared_buses = getattr(self, "_shared_buses", {})
        self._shared_buses[name] = shared
        return shared

    def add_dimm_node(self, name: str, parent: str,
                      downlink: Optional[LinkParams] = None) -> None:
        if parent not in self._parent_of:
            raise ValueError(f"unknown parent node {parent!r}")
        self._route_cache.clear()
        self._parent_of[name] = parent
        shared = getattr(self, "_shared_buses", {}).get(parent)
        if shared is not None:
            # DDR multidrop: every DIMM<->channel edge shares the bus link.
            self._connect_shared(parent, name, shared)
        else:
            self._connect(parent, name, downlink or self.comm.cxl_link)
        if parent in self.switches:
            self.switches[parent].attach_dimm(name)

    def _make_channel(self, link: Link, name: str) -> PackedChannel:
        return PackedChannel(
            self.engine, name, self, link,
            packing=self.comm.data_packing,
            flush_timeout=self.comm.flush_timeout,
        )

    def _connect(self, a: str, b: str, params: LinkParams) -> None:
        resolved = self.comm.resolve(params)
        for src, dst in ((a, b), (b, a)):
            link = Link(self.engine, f"{src}->{dst}", self, resolved,
                        role="cxl_link")
            self._channels[(src, dst)] = self._make_channel(link, f"{src}->{dst}.chan")

    def _connect_shared(self, a: str, b: str, shared: Link) -> None:
        for src, dst in ((a, b), (b, a)):
            self._channels[(src, dst)] = self._make_channel(
                shared, f"{src}->{dst}.chan"
            )

    # -- routing --------------------------------------------------------------------

    def _ancestors(self, node: str) -> List[str]:
        chain = [node]
        while self._parent_of[chain[-1]] is not None:
            chain.append(self._parent_of[chain[-1]])
        return chain

    def _walk(self, src: str, dst: str,
              force_host: bool) -> Tuple[Route, List[CxlSwitch]]:
        """The route from ``src`` to ``dst`` and the switches that turn
        it around (none when it crosses the host); no accounting."""
        if src == dst:
            return Route(src, dst, [], via_host=False), []
        up = self._ancestors(src)
        down = self._ancestors(dst)
        up_index = {n: i for i, n in enumerate(up)}
        pivot = next(n for n in down if n in up_index)
        if force_host and self.host is not None:
            pivot = self.host.name
        seq = up[: up_index[pivot] + 1] + list(reversed(down[: down.index(pivot)]))
        hops: List[PackedChannel] = []
        for i, node in enumerate(seq):
            if i > 0:
                hops.append(self._channels[(seq[i - 1], node)])
            # Traffic entering a switch or the host crosses its internal
            # bus once; DIMM and DDR-channel nodes have no internal bus.
            if node in self._internal:
                hops.append(self._internal[node])
        via_host = self.host is not None and self.host.name in seq
        turnarounds: List[CxlSwitch] = []
        if not via_host:
            for node in seq[1:-1]:
                switch = self.switches.get(node)
                if switch is not None:
                    turnarounds.append(switch)
        return Route(src, dst, hops, via_host), turnarounds

    def _fill(self, src: str, dst: str, force_host: bool
              ) -> Tuple[Route, List[CxlSwitch], Route]:
        """Compute and cache the route entry of ``(src, dst, force_host)``."""
        route, turnarounds = self._walk(src, dst, force_host)
        back, _ = self._walk(dst, src, force_host)
        entry = (route, turnarounds, back)
        self._route_cache[(src, dst, force_host)] = entry
        return entry

    def route(self, src: str, dst: str, force_host: bool = False) -> Route:
        """Channel hops from ``src`` to ``dst``.

        ``force_host`` models the missing device-bias optimization: the
        route is stretched to the host even when a switch could turn the
        traffic around locally.

        Each call also performs per-traversal *accounting* (host-detour /
        switch-turnaround counters); routes themselves are memoized over
        the fixed topology and the accounting is replayed on every call.
        """
        entry = self._route_cache.get((src, dst, force_host))
        if entry is None:
            entry = self._fill(src, dst, force_host)
        route, turnarounds, _back = entry
        if route.via_host:
            self.host.record_detour()
        else:
            for switch in turnarounds:
                switch.record_turnaround()
        return route

    def round_trip(self, src: str, dst: str,
                   force_host: bool = False) -> Tuple[Route, Route]:
        """The routes ``src -> dst`` and back, from one cache lookup.

        Accounts like ``route(src, dst, force_host)`` followed by
        ``route(dst, src, force_host)``, which is what it runs when tracing
        is on, so the ``host_detour``/``turnaround`` instants are those
        two calls'.  Untraced, the tallies are bumped inline: the way back
        crosses the host exactly when the way there does, and turns around
        in the same switches, so every tally it touches gets +2.
        """
        if self.engine.tracer:
            return (self.route(src, dst, force_host),
                    self.route(dst, src, force_host))
        entry = self._route_cache.get((src, dst, force_host))
        if entry is None:
            entry = self._fill(src, dst, force_host)
        route, turnarounds, back = entry
        if route.via_host:
            self.host.detour_messages += 2
        else:
            for switch in turnarounds:
                switch.in_switch_turnarounds += 2
        return route, back

    # -- transfer ----------------------------------------------------------------------

    def send(
        self,
        route: Route,
        kind: MessageKind,
        payload_bytes: int,
        on_delivered: Callable[[], None],
        cargo: object = None,
    ) -> None:
        """Move a payload along ``route`` hop by hop, then call back."""
        hops = route.hops
        if not hops:
            self.engine.schedule(self.comm.dimm_local_latency, on_delivered)
            return
        hops[0].send(Message(kind, payload_bytes, on_delivered, cargo, hops))

    def comm_energy_pj(self) -> float:
        """Total communication energy accrued on every link of the fabric."""
        return self.stats.total("energy_pj")


class RmwFlight:
    """One read-modify-write against a DIMM: read, arithmetic, write back.

    Both halves are :meth:`MemoryPool.dram_access` round trips from
    ``node`` on one half record: the read is drawn from the atomic request
    at :meth:`start`, and :meth:`write` reissues the same record as the
    write.  Between them the flight hands itself to ``compute``, which
    calls :meth:`write` once the arithmetic is done: after a fixed delay
    for a module-local atomic, on a free engine for an Atomic Engine bank
    (:class:`repro.core.atomic_engine.AtomicEngineBank`).  After the write
    it calls ``on_done(request)``.
    """

    __slots__ = ("pool", "request", "node", "compute", "on_done", "half")

    def __init__(self, pool: "MemoryPool", request: MemoryRequest, node: str,
                 compute: Callable[["RmwFlight"], None],
                 on_done: Callable[[MemoryRequest], None]) -> None:
        self.pool = pool
        self.request = request
        self.node = node
        self.compute = compute
        self.on_done = on_done
        self.half: Optional[MemoryRequest] = None

    def start(self) -> None:
        """Issue the read half."""
        self.half = self.request.read_half(self.node)
        self.pool.dram_access(self.half, self.node, self.after_read)

    def after_read(self, _read: MemoryRequest) -> None:
        self.compute(self)

    def write(self) -> None:
        """Arithmetic done: issue the write half."""
        half = self.half
        half.reissue(AccessKind.WRITE)
        self.pool.dram_access(half, self.node, self.written)

    def written(self, _write: MemoryRequest) -> None:
        self.on_done(self.request)


class MemoryPool(Component):
    """Fabric + DIMMs + controllers: the complete simulated memory system.

    A round trip runs on the request itself (see
    :class:`~repro.dram.request.MemoryRequest`): the pool stores itself,
    the route back and ``on_done`` on the request and sends one message on
    the request leg, straight onto the route's first hop.  The controller
    pushes the request's ``respond`` step at the completion cycle, which
    re-aims that message at the route back; the request's ``deliver``
    ends the trip.  A same-node trip (an empty route) takes
    ``dimm_local_latency`` each way instead.
    """

    def __init__(
        self,
        engine,
        name: str,
        parent,
        comm: CommParams,
        geometry: DimmGeometry = DimmGeometry(),
        timing: DramTiming = DramTiming(),
    ) -> None:
        super().__init__(engine, name, parent)
        if type(comm.dimm_local_latency) is not int or comm.dimm_local_latency < 0:
            raise ValueError(
                "dimm_local_latency must be a non-negative int, got "
                f"{comm.dimm_local_latency!r}"
            )
        self.comm = comm
        self.geometry = geometry
        self.timing = timing
        self.fabric = Fabric(engine, "fabric", self, comm)
        self.dimms: List[Dimm] = []
        self.controllers: List[DimmController] = []
        self.dimm_nodes: List[str] = []
        self._dimm_parent: Dict[int, str] = {}
        self._atomic_engines: Dict[str, object] = {}
        #: Each controller's entry, bound once: a request leg's arrival
        #: step is this bound to the request.
        self._submit: List[Callable[[MemoryRequest], None]] = []
        #: What a request's round-trip steps read: the engine's scheduler
        #: and the one-way latency of a same-node trip.
        self.scheduler = engine.scheduler
        self.local_latency = comm.dimm_local_latency

    # -- construction ---------------------------------------------------------------

    def add_dimm(self, node_name: str, parent_node: str, kind: DimmKind) -> int:
        """Create a DIMM + controller attached at ``parent_node``."""
        index = len(self.dimms)
        dimm = Dimm(self.engine, node_name, self, kind, self.geometry, self.timing)
        controller = DimmController(self.engine, f"{node_name}.mc", self, dimm)
        self.fabric.add_dimm_node(node_name, parent_node)
        self.dimms.append(dimm)
        self.controllers.append(controller)
        self._submit.append(controller.submit_when_possible)
        self.dimm_nodes.append(node_name)
        self._dimm_parent[index] = parent_node
        return index

    def owner_switch(self, dimm_index: int) -> str:
        """Node name of the switch/channel the DIMM hangs below."""
        return self._dimm_parent[dimm_index]

    def register_atomic_engine(self, node_name: str, engine_obj) -> None:
        """Attach the component serving ATOMIC_RMW at ``node_name``.

        ``engine_obj`` must provide ``perform(pool, request, respond)``.
        """
        self._atomic_engines[node_name] = engine_obj

    # -- request-lifecycle tracing ------------------------------------------------------
    # Call sites guard these with ``if engine.tracer:``, so an untraced
    # request pays one attribute read per site and no frame.

    def trace_req_begin(self, request: MemoryRequest,
                        src_node: str, dst_node: str) -> None:
        """Open the async ``req`` span anchoring this request's lifetime."""
        engine = self.engine
        tracer = engine.tracer
        if tracer.wants("req"):
            tracer.async_begin(
                "req", "mem_req", self.path, engine.now, request.req_id,
                pid=engine.trace_id,
                args={"task": request.task_id, "src": src_node,
                      "dst": dst_node, "kind": request.kind.value,
                      "size": request.size},
            )

    def trace_req_end(self, request: MemoryRequest) -> None:
        """Close the async ``req`` span opened by :meth:`trace_req_begin`."""
        engine = self.engine
        tracer = engine.tracer
        if tracer.wants("req"):
            tracer.async_end("req", "mem_req", self.path, engine.now,
                             request.req_id, pid=engine.trace_id)

    # -- the access path ----------------------------------------------------------------

    def access(self, request: MemoryRequest, src_node: str) -> None:
        """Run one memory access from ``src_node`` to completion.

        Handles routing (with/without device bias), controller submission
        with backpressure retry, the response trip, and atomic hand-off to
        the owning switch's Atomic Engine.  ``request.on_complete`` is
        called with the request once its response arrives.
        """
        dimm_index = request.dimm_index
        if dimm_index is None or request.rank is None:
            raise ValueError("request must be translated before access()")
        engine = self.engine
        if request.issued_at is None:
            request.issued_at = engine.now
        dst_node = self.dimm_nodes[dimm_index]
        if engine.tracer:
            self.trace_req_begin(request, src_node, dst_node)
        request.on_done = request.on_complete
        if request.kind is AccessKind.ATOMIC_RMW:
            if src_node != dst_node:
                self._route_atomic(request, src_node)
            else:
                self._local_atomic(request, src_node)
            return
        # A PE's own DIMM is always device memory.
        self._launch(
            request, src_node, dst_node,
            not self.comm.device_bias and src_node != dst_node,
            partial(self._submit[dimm_index], request),
        )

    def _launch(self, request: MemoryRequest, src_node: str, dst_node: str,
                force_host: bool, arrive: Callable[[], None]) -> None:
        """Send ``request`` from ``src_node`` to ``dst_node``, where
        ``arrive`` runs; the request keeps the route back for its
        response.  Its ``on_done`` must already be set."""
        route, back = self.fabric.round_trip(src_node, dst_node, force_host)
        request.pool = self
        request.route_back = back.hops
        hops = route.hops
        if not hops:
            self.scheduler.push(self.engine.now + self.local_latency, arrive)
            return
        # A read carries only its address; anything else carries its data.
        message = request.message = Message(
            MessageKind.MEM_REQUEST,
            READ_REQUEST_PAYLOAD if request.kind is AccessKind.READ
            else READ_REQUEST_PAYLOAD + request.size,
            arrive, request, hops,
        )
        hops[0].send(message)

    def _route_atomic(self, request: MemoryRequest, src_node: str) -> None:
        """Fig. 7: ship the atomic to the owning switch's Atomic Engine,
        which runs the RMW there; the acknowledgement comes back on the
        request's own response step."""
        switch_node = self.owner_switch(request.dimm_index)
        engine_obj = self._atomic_engines.get(switch_node)
        if engine_obj is None:
            raise RuntimeError(f"no atomic engine registered at {switch_node}")
        # The engine's ``respond(request)`` callback is the request's own
        # response step.
        self._launch(
            request, src_node, switch_node, not self.comm.device_bias,
            partial(engine_obj.perform, self, request, MemoryRequest.respond),
        )

    def _local_atomic(self, request: MemoryRequest, src_node: str) -> None:
        """RMW on the NDP module's own DIMM (BEACON-D local counters):
        read, arithmetic in the module, write back — no fabric involved."""
        # No fabric leg: once written, the request is delivered in place.
        request.pool = self
        RmwFlight(self, request, src_node, self._local_compute,
                  MemoryRequest.deliver).start()

    def _local_compute(self, flight: RmwFlight) -> None:
        """A local atomic's arithmetic: a fixed delay in the module."""
        self.engine.schedule(self.comm.atomic_compute_cycles, flight.write)

    # -- local (same-node) DRAM access used by atomic engines -----------------------------

    def dram_access(
        self,
        request: MemoryRequest,
        src_node: str,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Switch-local DRAM round trip (switch -> DIMM -> switch).

        Used by the Atomic Engines for the read and write halves of an RMW;
        bias never matters here because the switch owns the DIMM.
        """
        dimm_index = request.dimm_index
        dst_node = self.dimm_nodes[dimm_index]
        if self.engine.tracer:
            self.trace_req_begin(request, src_node, dst_node)
        request.on_done = on_done
        self._launch(
            request, src_node, dst_node, False,
            partial(self._submit[dimm_index], request),
        )
