"""Drop-tail output queues serializing packets onto links.

One :class:`OutputQueue` per link direction.  Packets enqueue at the
egress port; the head packet transmits for ``size*8/capacity`` seconds,
then propagates for the link delay before arriving at the peer node.
Queue overflow drops the tail (drop-tail discipline).

A packet hop is one kernel event, its arrival.  At a fixed rate the
departures are Lindley's recursion, ``start = max(now, free_at)``,
``free_at = start + tx``: the arrival is scheduled when the packet is
accepted (so arrivals at one instant fire in acceptance order), and the
FIFO holds the start instants after ``now``.  With ``capacity_fn`` (the
hybrid's time-varying residual capacity) the rate is sampled when a
transmission begins: waiting packets sit behind one start event armed
at ``free_at`` under the seq reserved when the transmission began.
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
        to a down link and packets lost in flight (down at arrival).
    capacity_fn:
        Optional ``(direction) -> bps`` override of the transmit rate,
        sampled per packet when its transmission starts.  The hybrid
        engine supplies the *residual* capacity (link rate minus
        flow-level background load) here; when None the direction's
        configured capacity is used and no start events are spent.
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
        #: The FIFO (the packet on the wire excluded): start instants without
        #: ``capacity_fn``, else packets, non-empty exactly while ``_start`` is queued.
        self._queue: Deque = deque()
        self._start = CallbackEvent(0.0, self._transmit)
        #: When the last accepted transmission ends, and the seq reserved
        #: when it began (with ``capacity_fn``).
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
        queue = self._queue
        if self.capacity_fn is None:
            now = self.sim.now  # a packet that started by now has left
            while queue and queue[0] <= now:
                queue.popleft()
        return len(queue)

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False when dropped."""
        sim = self.sim
        now = sim.now
        queue = self._queue
        limit = self.capacity_packets
        link = self.direction.link  # plain attributes: no property call per hop
        # depth <= len(queue): passed start instants are popped when it counts.
        if not link.up or len(queue) >= limit and self.depth >= limit:
            self._drop(packet)
            return False
        self.enqueued += 1
        start = self._free_at
        fixed_rate = self.capacity_fn is None
        if start <= now and (fixed_rate or not queue):
            # Idle (or freeing now): the last busy period ended at _free_at.
            self._busy_time += start - self._busy_since
            self._busy_since = start = now
        elif fixed_rate:
            queue.append(start)
        if not fixed_rate:
            queue.append(packet)
            if len(queue) == 1 and start == now:  # idle: it starts now
                self._transmit(sim)
            elif len(queue) == 1:  # the FIFO was empty: arm the start event
                self._start.time = start
                sim.schedule(self._start, seq=self._free_seq)
            return True
        # At a fixed rate the departure is known now: schedule the arrival.
        tx_time = packet.size_bytes * 8.0 / link.capacity_bps
        delay = link.delay_s
        self._free_at = start + tx_time
        sim.schedule(CallbackEvent(
            self._free_at + delay, self._on_arrival, packet, delay + tx_time))
        return True

    def _drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.direction.src_port.tx_dropped += 1
        self.on_drop(packet, self.direction)

    def _transmit(self, sim: Simulator) -> None:
        """Transmit the head packet from now on at the rate ``capacity_fn``
        gives now; schedule its arrival and re-arm behind it."""
        queue = self._queue
        packet = queue.popleft()
        tx_time = packet.size_bytes * 8.0 / self.capacity_fn(self.direction)
        self._free_seq = sim.reserve()
        delay = self.direction.link.delay_s
        self._free_at = sim.now + tx_time
        sim.call_at(self._free_at + delay, self._on_arrival, packet, delay + tx_time)
        if queue:
            self._start.time = self._free_at
            sim.schedule(self._start, seq=self._free_seq)

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
        if not direction.link.up:
            # Lost in flight: the link was cut before the packet arrived.
            self._drop(packet)
            return
        dst_port = direction.dst_port
        dst_port.rx_packets += 1
        dst_port.rx_bytes += size
        self.on_arrival(packet, dst_port)

    def _busy(self) -> bool:
        return self.depth > 0 or self.sim.now < self._free_at

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
