"""Host transports for the packet baseline: AIMD (TCP-like) and CBR.

The AIMD transport approximates TCP Reno congestion control with
simulator-oracle loss feedback: drops are known to the simulator, so
instead of sequence numbers and dup-acks the source receives a loss
notification one RTT after the drop.  This reproduces the bandwidth
sharing that matters for accuracy comparison (E3) without a full TCP
stack; the flow-level engine's max-min allocation is the fluid limit of
the same sharing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..flowsim.flow import Flow
from ..sim.event import CallbackEvent
from ..sim.kernel import Simulator
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PacketLevelEngine

#: Initial congestion window / slow-start threshold (packets).
INITIAL_CWND = 2.0
INITIAL_SSTHRESH = 64.0
#: Fallback RTT estimate before any measurement (seconds).
DEFAULT_RTT = 1e-3


class Transport:
    """Base transport: paces a flow's bytes into packets."""

    def __init__(
        self, engine: "PacketLevelEngine", flow: Flow, mtu_bytes: int
    ) -> None:
        self.engine = engine
        self.sim: Simulator = engine.sim
        self.flow = flow
        self.mtu = mtu_bytes
        self.bytes_queued = 0.0  # bytes handed to the NIC so far
        self.done_sending = False

    def start(self) -> None:
        raise NotImplementedError

    def next_packet(self) -> Optional[Packet]:
        """Mint the next packet, or None when the volume is exhausted."""
        flow = self.flow
        if flow.size_bytes is not None:
            remaining = flow.size_bytes - self.bytes_queued
            if remaining <= 0:
                self.done_sending = True
                return None
            size = int(min(self.mtu, remaining))
        else:
            if (
                flow.duration_s is not None
                and self.sim.now >= flow.start_time + flow.duration_s
            ):
                self.done_sending = True
                return None
            size = self.mtu
        self.bytes_queued += size
        return Packet(
            headers=flow.headers,
            size_bytes=size,
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            sent_at=self.sim.now,
        )

    # Engine callbacks -------------------------------------------------
    def on_delivered(self, packet: Packet) -> None:
        """A data packet reached the destination host."""

    def on_ack(self, packet: Packet) -> None:
        """The (modelled) ack for a delivered packet reached the source."""

    def on_loss(self, packet: Packet) -> None:
        """Loss feedback for a dropped packet reached the source."""

    def stop(self) -> None:
        self.done_sending = True


class CbrTransport(Transport):
    """Constant-bit-rate (UDP-like) pacing at the flow's demand rate.

    The pacing tick is a single reschedulable timer: after each firing
    the same event object is re-armed via ``Simulator.reschedule`` (one
    push, no allocation) instead of minting a fresh callback event per
    packet.
    """

    def __init__(
        self, engine: "PacketLevelEngine", flow: Flow, mtu_bytes: int
    ) -> None:
        super().__init__(engine, flow, mtu_bytes)
        self._tick_event: Optional[CallbackEvent] = None

    def start(self) -> None:
        self._send_tick(self.sim)

    def _send_tick(self, sim: Simulator) -> None:
        if self.done_sending or self.flow.finished:
            return
        packet = self.next_packet()
        if packet is None:
            self.engine.source_finished(self.flow)
            return
        self.engine.inject(self.flow, packet)
        interval = packet.size_bytes * 8.0 / self.flow.demand_bps
        timer = self._tick_event
        if timer is None:
            timer = CallbackEvent(sim.now + interval, self._send_tick)
            self._tick_event = sim.schedule(timer)
        else:
            self._tick_event = sim.reschedule(timer, sim.now + interval)

    def on_loss(self, packet: Packet) -> None:
        self.flow.bytes_dropped += packet.size_bytes


class AimdTransport(Transport):
    """Window-based AIMD (TCP Reno approximation with oracle loss)."""

    def __init__(
        self, engine: "PacketLevelEngine", flow: Flow, mtu_bytes: int
    ) -> None:
        super().__init__(engine, flow, mtu_bytes)
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.in_flight = 0
        self.srtt = DEFAULT_RTT
        self._recovery_until = 0.0  # one halving per window of loss

    def start(self) -> None:
        self._pump()

    def _pump(self) -> None:
        """Send while the window allows."""
        while not self.done_sending and self.in_flight < int(self.cwnd):
            packet = self.next_packet()
            if packet is None:
                break
            self.in_flight += 1
            self.engine.inject(self.flow, packet)
        if (
            self.done_sending
            and self.in_flight == 0
            and not self.flow.finished
        ):
            self.engine.source_finished(self.flow)

    def on_delivered(self, packet: Packet) -> None:
        # Model the ack: it arrives back at the source after the same
        # one-way delay the data packet experienced (symmetric paths,
        # ack bandwidth ignored — the standard simulation shortcut).
        self.sim.call_in(
            max(packet.accumulated_delay, 1e-9), self._ack_event, packet
        )

    def _ack_event(self, sim: Simulator, packet: Packet) -> None:
        self.on_ack(packet)

    def on_ack(self, packet: Packet) -> None:
        if self.flow.finished:
            return
        self.in_flight = max(0, self.in_flight - 1)
        rtt_sample = (self.sim.now - packet.sent_at)
        self.srtt = 0.875 * self.srtt + 0.125 * rtt_sample
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self._pump()

    def on_loss(self, packet: Packet) -> None:
        if self.flow.finished:
            return
        self.flow.bytes_dropped += packet.size_bytes
        self.in_flight = max(0, self.in_flight - 1)
        # Retransmit the lost bytes: put them back on the budget.
        self.bytes_queued = max(0.0, self.bytes_queued - packet.size_bytes)
        self.done_sending = False
        if self.sim.now >= self._recovery_until:
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh
            self._recovery_until = self.sim.now + self.srtt
        self._pump()


def make_transport(
    engine: "PacketLevelEngine", flow: Flow, mtu_bytes: int
) -> Transport:
    """Pick the transport from the flow's elasticity flag."""
    if flow.elastic:
        return AimdTransport(engine, flow, mtu_bytes)
    return CbrTransport(engine, flow, mtu_bytes)
