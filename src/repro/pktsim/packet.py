"""Packet objects for the packet-level baseline engine."""

from __future__ import annotations

import itertools
from typing import Optional

from ..openflow.headers import HeaderFields

_PACKET_IDS = itertools.count(1)

#: Highest packet id handed out so far (0 = none): the checkpoint
#: watermark, so a restored run in a fresh process never reuses ids.
_PACKET_ID_LAST = 0


def next_packet_id() -> int:
    """Allocate a packet id (monotone per process)."""
    global _PACKET_ID_LAST
    _PACKET_ID_LAST = next(_PACKET_IDS)
    return _PACKET_ID_LAST


def packet_id_watermark() -> int:
    """Highest packet id allocated so far (checkpoint capture reads this)."""
    return _PACKET_ID_LAST


def reset_packet_ids() -> None:
    """Rewind the process-global packet-id counter to its import-time
    state (sweep workers isolate jobs this way)."""
    global _PACKET_IDS, _PACKET_ID_LAST
    _PACKET_IDS = itertools.count(1)
    _PACKET_ID_LAST = 0


def advance_packet_ids(minimum: int) -> None:
    """Ensure future packet ids are > ``minimum`` (checkpoint restore
    advances past the snapshot's watermark)."""
    global _PACKET_IDS, _PACKET_ID_LAST
    start = max(_PACKET_ID_LAST, minimum) + 1
    _PACKET_IDS = itertools.count(start)
    _PACKET_ID_LAST = start - 1


class Packet:
    """One packet: a header tuple, a size, and bookkeeping timestamps.

    ``flow_id`` ties the packet back to the generating
    :class:`~repro.flowsim.flow.Flow` so per-flow throughput and
    completion can be measured at packet granularity.  A slots class:
    one is built per injected packet and updated on every hop.
    """

    __slots__ = ("headers", "size_bytes", "flow_id", "src", "dst", "sent_at",
                 "accumulated_delay", "hops", "packet_id")

    def __init__(
        self,
        headers: HeaderFields,
        size_bytes: int,
        flow_id: int,
        src: str,
        dst: str,
        sent_at: float = 0.0,
        accumulated_delay: float = 0.0,
        hops: int = 0,
        packet_id: Optional[int] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be > 0, got {size_bytes}")
        self.headers = headers
        self.size_bytes = size_bytes
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.sent_at = sent_at
        #: Cumulative one-way propagation+transmission delay experienced.
        self.accumulated_delay = accumulated_delay
        self.hops = hops
        self.packet_id = next_packet_id() if packet_id is None else packet_id

    def copy(self) -> "Packet":
        """A copy of this packet under a fresh id (a multicast copy)."""
        return Packet(self.headers, self.size_bytes, self.flow_id, self.src,
                      self.dst, self.sent_at, self.accumulated_delay, self.hops)

    def __repr__(self) -> str:
        return (
            f"<Packet {self.packet_id} flow={self.flow_id} "
            f"{self.src}->{self.dst} {self.size_bytes}B>"
        )
