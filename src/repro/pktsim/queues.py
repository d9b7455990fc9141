"""Drop-tail output queues serializing packets onto links.

One :class:`OutputQueue` per link direction.  Packets enqueue at the
egress port; the head packet transmits for ``size*8/capacity`` seconds,
then propagates for the link delay before arriving at the peer node.
Queue overflow drops the tail (drop-tail discipline).

A packet hop is one kernel event, its arrival: the queue knows when its
current transmission ends (``_free_at``), so a packet that finds the
transmitter idle and nobody waiting starts at once and its arrival is
scheduled then.  Packets that must wait sit in the FIFO behind one
start event armed at ``_free_at``, which starts the head and re-arms
while the FIFO is non-empty, so the transmit rate is still sampled at
the instant each transmission begins.  The start event is pushed under
the sequence number reserved when the transmission before it began, so
it breaks ties at ``_free_at`` as a transmission-end event scheduled
then would.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..net.link import LinkDirection
from ..sim.event import CallbackEvent
from ..sim.kernel import Simulator
from .packet import Packet


class OutputQueue:
    """A FIFO bound to one link direction.

    Parameters
    ----------
    capacity_packets:
        Maximum queued packets (the in-flight transmission excluded).
    on_arrival:
        Callback ``(packet, dst_port)`` invoked when a packet finishes
        propagating to the far end.
    on_drop:
        Callback ``(packet, direction)`` for tail drops, packets offered
        to a down link, and packets lost in flight (the link was down
        when they would have arrived).
    capacity_fn:
        Optional ``(direction) -> bps`` override of the transmit rate,
        sampled per packet when its transmission starts.  The hybrid
        engine supplies the *residual* capacity (link rate minus
        flow-level background load) here; when None the direction's
        configured capacity is used.
    """

    __slots__ = (
        "sim",
        "direction",
        "capacity_packets",
        "on_arrival",
        "on_drop",
        "capacity_fn",
        "_queue",
        "_start",
        "_free_at",
        "_free_seq",
        "_busy_since",
        "_busy_time",
        "enqueued",
        "dropped",
        "transmitted_bytes",
    )

    def __init__(
        self,
        sim: Simulator,
        direction: LinkDirection,
        capacity_packets: int,
        on_arrival: Callable[[Packet, object], None],
        on_drop: Callable[[Packet, LinkDirection], None],
        capacity_fn: Optional[Callable[[LinkDirection], float]] = None,
    ) -> None:
        if capacity_packets < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity_packets}")
        self.sim = sim
        self.direction = direction
        self.capacity_packets = capacity_packets
        self.on_arrival = on_arrival
        self.on_drop = on_drop
        self.capacity_fn = capacity_fn
        #: Packets waiting for the transmitter (the one on the wire is
        #: not here); non-empty exactly while ``_start`` is queued.
        self._queue: Deque[Packet] = deque()
        self._start = CallbackEvent(0.0, self._on_start)
        #: When the current (or last) transmission ends, and the seq
        #: reserved when it began.
        self._free_at = 0.0
        self._free_seq = 0
        #: Start of the busy period that ends at ``_free_at``; the busy
        #: periods before it sum to ``_busy_time``.
        self._busy_since = 0.0
        self._busy_time = 0.0
        self.enqueued = 0
        self.dropped = 0
        self.transmitted_bytes = 0

    @property
    def depth(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False when dropped."""
        if not self.direction.up:
            self._drop(packet)
            return False
        queue = self._queue
        sim = self.sim
        if queue or self._free_at > sim.now:
            if len(queue) >= self.capacity_packets:
                self._drop(packet)
                return False
            queue.append(packet)
            if len(queue) == 1:
                self._arm(sim)
        else:
            # The transmitter is idle (or frees at this instant): its
            # last busy period ended at _free_at and a new one starts now.
            self._busy_time += self._free_at - self._busy_since
            self._busy_since = sim.now
            self._transmit(sim, packet)
        self.enqueued += 1
        return True

    def _drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.direction.src_port.tx_dropped += 1
        self.on_drop(packet, self.direction)

    def _on_start(self, sim: Simulator) -> None:
        queue = self._queue
        self._transmit(sim, queue.popleft())
        if queue:
            self._arm(sim)

    def _arm(self, sim: Simulator) -> None:
        # The start event is never queued here (the FIFO was empty, or
        # it is firing), so it is re-stamped and pushed as it stands.
        start = self._start
        start.time = self._free_at
        sim.schedule(start, seq=self._free_seq)

    def _transmit(self, sim: Simulator, packet: Packet) -> None:
        """Start ``packet`` now and schedule its arrival."""
        direction = self.direction
        capacity_fn = self.capacity_fn
        rate = (
            direction.capacity_bps
            if capacity_fn is None
            else capacity_fn(direction)
        )
        tx_time = packet.size_bytes * 8.0 / rate
        delay = direction.delay_s
        self._free_at = sim.now + tx_time
        self._free_seq = sim.reserve()
        sim.call_at(
            self._free_at + delay, self._on_arrival, packet, delay + tx_time
        )

    def _on_arrival(self, sim: Simulator, packet: Packet, hop_delay: float) -> None:
        size = packet.size_bytes
        self.transmitted_bytes += size
        direction = self.direction
        src_port = direction.src_port
        src_port.tx_packets += 1
        src_port.tx_bytes += size
        # Credited here, not at the start: a packet on the wire is not
        # yet further along (a multicast copy cloned from it after its
        # transmission started must not inherit this hop).
        packet.accumulated_delay += hop_delay
        packet.hops += 1
        if not direction.up:
            # Lost in flight: the link was cut before the packet arrived.
            self._drop(packet)
            return
        dst_port = direction.dst_port
        dst_port.rx_packets += 1
        dst_port.rx_bytes += size
        self.on_arrival(packet, dst_port)

    def _busy(self) -> bool:
        return bool(self._queue) or self.sim.now < self._free_at

    @property
    def busy_time(self) -> float:
        """Total seconds the transmitter was busy in busy periods that
        have ended (for utilization)."""
        if self._busy():
            return self._busy_time
        return self._busy_time + (self._free_at - self._busy_since)

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Fraction of [since, now] the transmitter was busy."""
        end = now if self._busy() else self._free_at
        busy = self._busy_time + (end - self._busy_since)
        window = now - since
        return busy / window if window > 0 else 0.0
