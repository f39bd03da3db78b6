"""Data Packer: fine-grained payload aggregation into flits (Fig. 6).

Genome analysis moves lots of tiny payloads (32 B occ blocks, 4 B hash
locations, sub-byte Bloom counters) over a fabric whose native transfer
granularity is 64 B.  Without packing, every payload rounds up to whole
flits and most wire bytes are useless.  The Data Packer sits at each link
entry: it accumulates small payloads, emits a flit once full, and flushes
after a short timeout so trickling traffic is not stalled indefinitely.

:class:`PackedChannel` is the uniform send interface used by everything
above the link layer; construction chooses packing on or off, so the
``data_packing`` optimization flag of the experiments is literally "which
channel wrapper the topology builder instantiated".  It is also the only
code that puts bytes on a :class:`~repro.cxl.link.Link`: serialization,
the link's tallies and the arrival push live at the end of
:meth:`PackedChannel.send`, so a direct or idle-link send is one frame
from message to scheduler.  The arrival push is the message's next step
itself (the next hop's ``send`` bound to the message, or the sender's
callback after the last hop), so a fabric hop is one frame too.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cxl.flit import FLIT_BYTES, Message
from repro.cxl.link import Link
from repro.sim.component import Component


def _wire_tag(batch: List[Message]) -> Dict[str, object]:
    """Trace-span tag for a link transfer carrying ``batch``.

    ``reqs`` lists the memory-request ids riding the wire (from each
    message's cargo, when it is a request) so the latency stitcher can
    attribute serialization time to individual requests; ``kind`` is the
    message kind when the batch is uniform.
    """
    tag: Dict[str, object] = {}
    reqs = [
        req_id
        for req_id in (
            getattr(message.cargo, "req_id", None) for message in batch
        )
        if req_id is not None
    ]
    if reqs:
        tag["reqs"] = reqs
    kinds = {message.kind.value for message in batch}
    if len(kinds) == 1:
        # repro: allow[no-set-iteration-order] -- guarded by len == 1: taking
        # the sole element of a singleton set is order-independent.
        tag["kind"] = next(iter(kinds))
    return tag


class _BatchDelivery:
    """Runs one flushed batch's next steps, in buffer order, at link arrival.

    A slotted callable instead of a per-flush closure; after delivery the
    step list is recycled into the channel's small freelist so steady-state
    packing allocates one ``_BatchDelivery`` per flush and nothing else.
    """

    __slots__ = ("channel", "steps")

    def __init__(self, channel: "PackedChannel",
                 steps: List[Callable[[], None]]) -> None:
        self.channel = channel
        self.steps = steps

    def __call__(self) -> None:
        steps = self.steps
        for step in steps:
            step()
        # Steps only ever append to the channel's *current* step list,
        # never to this already-shipped one, so it is safe to recycle here.
        free = self.channel._free_steps
        if len(free) < PackedChannel.BATCH_FREELIST_CAP:
            steps.clear()
            free.append(steps)


class PackedChannel(Component):
    """Send interface over one link, with or without data packing."""

    #: Cap on retained drained step lists for reuse.
    BATCH_FREELIST_CAP = 8

    def __init__(
        self,
        engine,
        name: str,
        parent,
        link: Link,
        packing: bool,
        flush_timeout: int = 8,
    ) -> None:
        super().__init__(engine, name, parent)
        if flush_timeout <= 0:
            raise ValueError("flush_timeout must be positive")
        self.link = link
        self.packing = packing
        self.flush_timeout = flush_timeout
        self._buffer: List[Message] = []
        #: The buffered messages' next steps, index for index.
        self._steps: List[Callable[[], None]] = []
        self._buffer_bytes = 0
        self._flush_scheduled_at: Optional[int] = None
        #: Live handle for the pending timeout flush (cancellable, so a
        #: buffer-full flush retracts the timer instead of leaving a dead
        #: event in the queue).
        self._flush_handle = None
        self._free_steps: List[List[Callable[[], None]]] = []
        #: Per-send tallies, pulled into the scope under the same names.
        self.payload_bytes = 0
        self.direct_messages = 0
        self.packed_flits = 0
        self.packed_messages = 0
        self.stats.pull = self._pull_stats
        # The link's wire constants, hoisted out of its params for the
        # send path (~1M sends per figure).  The canonical bandwidths are
        # whole bytes/cycle, so serialization can use int ceil-division; a
        # genuinely fractional bandwidth keeps the float path (followed by
        # the historical int() truncation).
        params = link.params
        bpc = params.bytes_per_cycle
        ibpc = int(bpc) if not params.ideal else 1
        self._bpc = ibpc if ibpc == bpc else bpc
        self._latency = params.latency_cycles
        self._pj = params.pj_per_byte
        self._ideal = params.ideal
        # The one-flit idle-link send's constants: its serialization
        # cycles, its energy (the same float ``wire * pj_per_byte`` gives)
        # and its arrival offset from the send cycle.
        self._flit_serialize = int(-(-FLIT_BYTES // self._bpc))
        self._flit_pj = FLIT_BYTES * self._pj
        self._flit_arrive = self._flit_serialize + self._latency
        self._sched = engine.scheduler

    def _pull_stats(self) -> None:
        # Every message sent so far is direct, flushed in a packed flit or
        # still buffered; each one wrote ``payload_bytes``.
        counters = self.stats.counters
        if self.direct_messages or self.packed_messages or self._buffer:
            counters["payload_bytes"] = float(self.payload_bytes)
        if self.direct_messages:
            counters["direct_messages"] = float(self.direct_messages)
        if self.packed_messages:
            counters["packed_flits"] = float(self.packed_flits)
            counters["packed_messages"] = float(self.packed_messages)

    def send(self, message: Optional[Message] = None) -> None:
        """Queue ``message`` for transfer; its callback fires at delivery.

        Called without a message, this is the flush timer firing: the
        buffer ships if it still holds anything.
        """
        engine = self.engine
        now = engine.now
        tracer = engine.tracer
        tag = None
        if message is None:
            self._flush_scheduled_at = None
            self._flush_handle = None
            if not self._buffer:
                return
            wire, deliver, tag = self._take_batch()
        else:
            message.created_at = now
            # The message's next step, run at arrival: the next hop's send,
            # or the sender's callback after the last hop.
            index = message.index + 1
            hops = message.hops
            if index < len(hops):
                message.index = index
                deliver = partial(hops[index].send, message)
            else:
                deliver = message.on_delivered
            # Tallies are plain attributes (~1M sends per figure).
            self.payload_bytes += message.payload_bytes
            packed_bytes = message.packed_wire_bytes
            if not self.packing or packed_bytes >= FLIT_BYTES:
                # Large payloads gain nothing from packing; ship them
                # directly.
                self.direct_messages += 1
                if tracer:
                    tag = _wire_tag([message])
                wire = message.unpacked_wire_bytes
            elif (not self._buffer and self.link.free_at <= now
                  and tracer is None):
                # Idle link, empty buffer: this message would flush alone
                # this cycle anyway (one sub-flit payload -> one flit), so
                # it goes straight onto the wire from the per-channel flit
                # constants and returns.  Kept off under tracing so the
                # flit_flush instant stream is unchanged.
                self.packed_flits += 1
                self.packed_messages += 1
                link = self.link
                link.messages += 1
                link.wire_bytes += FLIT_BYTES
                link.energy_pj += self._flit_pj
                if self._ideal:
                    self._sched.push(now, deliver)
                    return
                link.free_at = now + self._flit_serialize
                link.busy_cycles += self._flit_serialize
                self._sched.push(now + self._flit_arrive, deliver)
                return
            else:
                self._buffer.append(message)
                self._steps.append(deliver)
                self._buffer_bytes += packed_bytes
                if (self._buffer_bytes < FLIT_BYTES
                        and self.link.free_at > now):
                    # Link is draining other traffic; buffer until it
                    # frees (capped by the flush timeout) so packing costs
                    # no extra latency.
                    self._arm_flush_timer()
                    return
                # Buffer full, or the link is idle: waiting for
                # co-travellers would only add latency.
                wire, deliver, tag = self._take_batch()
        # -- onto the wire: ``wire`` bytes, ``deliver`` fires at arrival --
        link = self.link
        link.messages += 1
        link.wire_bytes += wire
        link.energy_pj += wire * self._pj
        if self._ideal:
            self._sched.push(now, deliver)
            return
        start = link.free_at
        if start < now:
            start = now
        serialize = int(-(-wire // self._bpc))
        free_at = start + serialize
        link.free_at = free_at
        arrive = free_at + self._latency
        link.busy_cycles += serialize
        if tracer and tracer.wants("cxl"):
            args: Dict[str, object] = {
                "bytes": wire,
                "wait": start - now,
                "arrive": arrive,
                "role": link.role,
                "lat": self._latency,
            }
            if tag:
                args.update(tag)
            tracer.complete(
                "cxl", "xfer", link.path, start, serialize,
                pid=engine.trace_id, args=args,
            )
        # Integral and not in the past by construction, so the arrival
        # goes straight onto the scheduler.
        self._sched.push(arrive, deliver)

    # -- packing internals ------------------------------------------------------

    def _arm_flush_timer(self) -> None:
        now = self.engine.now
        wait = self.link.free_at - now
        if wait < 1:
            wait = 1
        elif wait > self.flush_timeout:
            wait = self.flush_timeout
        deadline = now + wait
        if self._flush_scheduled_at is not None:
            if self._flush_scheduled_at <= deadline:
                return
            self._flush_handle.cancel()
        self._flush_scheduled_at = deadline
        self._flush_handle = self.engine.schedule_cancellable(wait, self.send)

    def _take_batch(self) -> Tuple[int, Callable[[], None], Optional[dict]]:
        """Empty the buffer into one flush: its wire bytes, its delivery
        callback and its trace tag (``None`` when tracing is off)."""
        batch = self._buffer
        steps = self._steps
        batch_bytes = self._buffer_bytes
        self._buffer_bytes = 0
        if self._flush_scheduled_at is not None:
            self._flush_scheduled_at = None
            self._flush_handle.cancel()
            self._flush_handle = None
        wire = -(-batch_bytes // FLIT_BYTES) * FLIT_BYTES
        self.packed_flits += wire // FLIT_BYTES
        self.packed_messages += len(batch)
        engine = self.engine
        tracer = engine.tracer
        tag = None
        if tracer:
            now = engine.now
            tag = _wire_tag(batch)
            args: Dict[str, object] = {
                "messages": len(batch), "payload_bytes": batch_bytes,
                "wire_bytes": wire,
                # Per-request buffering time (cycles spent waiting for
                # co-travellers), aligned index-for-index with ``reqs``.
                # ``send`` stamps ``created_at`` before buffering.
                "waits": [
                    now - m.created_at
                    for m in batch
                    if getattr(m.cargo, "req_id", None) is not None
                ],
            }
            args.update(tag)
            tracer.instant(
                "cxl", "flit_flush", self.path, now,
                pid=engine.trace_id, args=args,
            )
        # Nothing reads the shipped messages after this point, so the
        # buffer list stays the channel's buffer.
        batch.clear()
        if len(steps) == 1:
            # Idle-link sends flush immediately, so single-message batches
            # dominate: ship the message's own next step and keep the step
            # list instead of allocating a ``_BatchDelivery``.
            deliver = steps[0]
            steps.clear()
            return wire, deliver, tag
        free = self._free_steps
        self._steps = free.pop() if free else []
        return wire, _BatchDelivery(self, steps), tag

    # -- reporting ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._buffer)
