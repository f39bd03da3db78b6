"""Flits and messages on the CXL fabric."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.cxl.packer import PackedChannel

#: CXL's default data transfer granularity (Section IV-B: "the default data
#: transfer granularity in CXL is 64 Bytes").
FLIT_BYTES = 64

#: Header bytes per memory request on the wire (address + metadata).
REQUEST_HEADER_BYTES = 16
#: Header bytes prefixed to each packed payload so the unpacker can separate
#: and route it (Fig. 6's per-datum tag).
PACKED_HEADER_BYTES = 2
#: Header bytes per response message.
RESPONSE_HEADER_BYTES = 8


class MessageKind(enum.Enum):
    """What a fabric message carries."""

    MEM_REQUEST = "mem_request"     # a memory read/write command
    MEM_RESPONSE = "mem_response"   # data returning to a requester
    TASK = "task"                   # a task dispatch (read + metadata)
    CONTROL = "control"             # framework/coherence traffic


class Message:
    """One logical payload walking its route across the fabric.

    ``payload_bytes`` is the *useful* content; how many wire bytes it costs
    depends on whether the channel packs fine-grained payloads together
    (see :class:`repro.cxl.packer.PackedChannel`).

    The message carries its route's channel ``hops`` and the index of the
    hop it is on.  Hop ``i + 1`` only begins after hop ``i`` delivers, so
    one message serves the whole route and is never on two channels at
    once.  When :meth:`~repro.cxl.packer.PackedChannel.send` puts the
    message on hop ``i``'s wire it advances ``index`` and schedules the
    next step itself: hop ``i + 1``'s ``send`` bound to the message, or,
    after the last hop, the sender's zero-argument ``on_delivered``, which
    is therefore required.  Only the scheduler (and, while the message
    waits in a packing buffer, its channel) holds that step, never the
    message, so a delivered message is freed by reference counting alone.

    A memory round trip sends one message both ways: once the request leg
    is delivered, :meth:`reaim` turns the same message into the response
    on the route back.

    The wire-cost fields are fixed by ``kind``/``payload_bytes`` and read
    on every fabric hop, so they are computed once per leg.
    ``created_at`` is stamped by each send only while the engine traces.
    """

    __slots__ = (
        "kind", "payload_bytes", "on_delivered", "cargo", "hops", "index",
        "created_at", "header_bytes", "packed_wire_bytes",
        "unpacked_wire_bytes",
    )

    def __init__(
        self,
        kind: MessageKind,
        payload_bytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        cargo: object = None,
        hops: Sequence["PackedChannel"] = (),
    ) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if on_delivered is None:
            raise ValueError(f"{kind.value} message needs an on_delivered callback")
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.on_delivered = on_delivered
        #: Arbitrary cargo (usually the MemoryRequest this message moves).
        self.cargo = cargo
        self.hops = hops
        self.index = 0
        self.created_at: Optional[int] = None
        header = (REQUEST_HEADER_BYTES if kind is MessageKind.MEM_REQUEST
                  else PACKED_HEADER_BYTES)
        #: Per-message header cost when packed into a shared flit.
        self.header_bytes = header
        total = payload_bytes + header
        #: Wire cost contribution when sharing flits with other payloads.
        self.packed_wire_bytes = total
        #: Wire cost without data packing: whole flits only.
        self.unpacked_wire_bytes = -(-total // FLIT_BYTES) * FLIT_BYTES

    def reaim(self, payload_bytes: int, hops: Sequence["PackedChannel"],
              on_delivered: Callable[[], None]) -> None:
        """Turn this delivered message into the ``MEM_RESPONSE`` carrying
        ``payload_bytes`` along ``hops`` to ``on_delivered``; the cargo
        stays.  The caller then sends it on ``hops[0]``."""
        self.kind = MessageKind.MEM_RESPONSE
        self.payload_bytes = payload_bytes
        self.on_delivered = on_delivered
        self.hops = hops
        self.index = 0
        self.header_bytes = PACKED_HEADER_BYTES
        total = payload_bytes + PACKED_HEADER_BYTES
        self.packed_wire_bytes = total
        self.unpacked_wire_bytes = -(-total // FLIT_BYTES) * FLIT_BYTES
