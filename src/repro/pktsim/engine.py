"""The packet-level baseline engine.

Moves individual packets through the same topology and OpenFlow
pipelines as the flow-level engine, with drop-tail queues and
store-and-forward links.  This is the in-repo stand-in for the
packet-granularity tools the poster contrasts against (Mininet/ns-3):
high fidelity, per-packet cost — the scalability experiments (E1/E2)
measure exactly that cost, and the accuracy experiment (E3) uses it as
ground truth.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Dict, List, Optional

from ..core.config import HorseConfig
from ..net.link import LinkDirection, Port
from ..net.node import Host, Switch
from ..net.topology import Topology
from ..flowsim.flow import Flow, FlowState
from ..openflow.messages import PacketIn, PacketInReason
from ..sim.engine import Engine
from ..sim.kernel import Simulator
from .packet import Packet
from .queues import OutputQueue
from .transport import AimdTransport, Transport, make_transport

logger = logging.getLogger(__name__)


class PacketLevelEngine(Engine):
    """Per-packet simulation over OpenFlow pipelines.

    Accepts the same :class:`~repro.flowsim.flow.Flow` objects as the
    flow-level engine — ``elastic`` flows get an AIMD transport, others
    constant-bit-rate — so one workload definition drives both engines.

    Parameters
    ----------
    sim, topology, control:
        See :class:`~repro.sim.engine.Engine`.
    config:
        The run's :class:`~repro.core.config.HorseConfig` (None means
        ``HorseConfig()``).  The engine reads ``mtu_bytes`` (packet
        size used by the transports), ``queue_capacity_packets``
        (drop-tail depth of every output queue) and ``max_hops`` (hop
        guard against forwarding loops).
    capacity_fn:
        Optional ``(direction) -> bps`` transmit-rate override threaded
        into every output queue (hybrid residual capacity); None uses
        each direction's configured capacity.
    """

    name = "packet"

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        control: Optional[object] = None,
        config: Optional[HorseConfig] = None,
        capacity_fn: Optional[object] = None,
    ) -> None:
        super().__init__(sim, topology, control)
        config = config or HorseConfig()
        self.mtu_bytes = config.mtu_bytes
        self.queue_capacity_packets = config.queue_capacity_packets
        self.max_hops = config.max_hops
        #: Per-direction transmit-rate override passed to new queues.
        self.capacity_fn = capacity_fn
        self.transports: Dict[int, Transport] = {}
        self._queues: Dict[LinkDirection, OutputQueue] = {}
        # Packets parked at a switch awaiting an asynchronous packet-out,
        # keyed by (dpid, in_port, flow_id); bounded per key.
        self._buffered: Dict[tuple, deque] = {}
        self.stats = {
            "packets_sent": 0,
            "packets_delivered": 0,
            "drops_congestion": 0,
            "drops_meter": 0,
            "drops_policy": 0,
            "drops_loop": 0,
            "drops_no_route": 0,
            "packet_ins": 0,
            "completed": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        self.sim.call_at(flow.start_time, self._start_flow, flow)

    def queue_for(self, direction: LinkDirection) -> OutputQueue:
        """The (lazily created) output queue of a link direction."""
        queue = self._queues.get(direction)
        if queue is None:
            queue = OutputQueue(
                self.sim,
                direction,
                self.queue_capacity_packets,
                on_arrival=self._on_packet_arrival,
                on_drop=self._on_congestion_drop,
                capacity_fn=self.capacity_fn,
            )
            self._queues[direction] = queue
        return queue

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def _start_flow(self, sim: Simulator, flow: Flow) -> None:
        flow.state = FlowState.ACTIVE
        transport = make_transport(self, flow, self.mtu_bytes)
        self.transports[flow.flow_id] = transport
        if flow.duration_s is not None:
            sim.call_at(
                flow.start_time + flow.duration_s, self._end_flow, flow
            )
        transport.start()

    def _end_flow(self, sim: Simulator, flow: Flow) -> None:
        if flow.finished:
            return
        flow.state = FlowState.ENDED
        flow.end_time = sim.now
        transport = self.transports.get(flow.flow_id)
        if transport is not None:
            transport.stop()

    def inject(self, flow: Flow, packet: Packet) -> None:
        """Called by transports: put a fresh packet on the host uplink."""
        self.stats["packets_sent"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "packet.enqueue",
                packet=packet.packet_id,
                flow=packet.flow_id,
                size=packet.size_bytes,
            )
        flow.bytes_sent += packet.size_bytes
        host = self.topology.host(flow.src)
        uplink = host.uplink_port
        if uplink.link is None or not uplink.link.up:
            self._policy_drop(packet, "no_route")
            return
        self.queue_for(uplink.link.direction_from(uplink)).enqueue(packet)

    def source_finished(self, flow: Flow) -> None:
        """A source exhausted its volume (transport callback)."""
        # Elastic flows complete on full delivery (see _deliver); CBR
        # volume flows complete when the source drains.
        if not flow.elastic and flow.size_bytes is not None and not flow.finished:
            self._complete(flow)

    def _complete(self, flow: Flow) -> None:
        flow.state = FlowState.COMPLETED
        flow.end_time = self.sim.now
        self.stats["completed"] += 1

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _on_packet_arrival(self, packet: Packet, dst_port: Port) -> None:
        node = dst_port.node
        if isinstance(node, Host):
            if node.name == packet.dst:
                self._deliver(packet)
            # Frames for other hosts are discarded silently.
            return
        if not isinstance(node, Switch) or node.pipeline is None:
            self._policy_drop(packet, "no_route")
            return
        if packet.hops >= self.max_hops:
            self._policy_drop(packet, "loop")
            return
        self._switch_process(node, packet, dst_port.number)

    def _switch_process(self, switch: Switch, packet: Packet, in_port: int) -> None:
        pipeline = switch.pipeline
        result = pipeline.process(packet.headers, in_port)
        out_ports = list(result.out_ports)
        if result.to_controller or (result.miss and not result.matched_entries):
            reply = self._raise_packet_in(switch, packet, in_port, result)
            if reply is not None:
                retry = pipeline.process(packet.headers, in_port)
                if retry.matched_entries and not retry.to_controller:
                    result = retry
                    out_ports = list(retry.out_ports)
                else:
                    result = retry
                    out_ports = pipeline.expand_reserved(in_port, reply)
            elif self.control is not None and not out_ports:
                # Asynchronous control: park the packet like a real switch
                # buffers it, released by apply_packet_out.
                self._buffer_packet(switch, packet, in_port)
                return
            elif result.miss:
                self._policy_drop(packet, "policy")
                return
        # Account matched entries (per-packet granularity).
        for entry in result.matched_entries:
            entry.account(packet.size_bytes, 1, now=self.sim.now)
        for group, index in result.group_hits:
            group.account(index, packet.size_bytes)
        if result.dropped:
            self._policy_drop(packet, "policy")
            return
        if result.miss and not out_ports:
            self._policy_drop(packet, "policy")
            return
        # Meters: token-bucket admission; any red band drops the packet.
        for meter_id in result.meter_ids:
            meter = pipeline.meters.get(meter_id)
            if not meter.admit_packet(packet.size_bytes, self.sim.now):
                self.stats["drops_meter"] += 1
                if self.trace_bus is not None:
                    self.trace_bus.emit(
                        "packet.drop",
                        reason="meter",
                        packet=packet.packet_id,
                        flow=packet.flow_id,
                    )
                self._loss_feedback(packet)
                return
        headers_after = result.headers or packet.headers
        if headers_after is not packet.headers:
            packet.headers = headers_after
        if not out_ports:
            self._policy_drop(packet, "policy")
            return
        self._emit_on_ports(switch, packet, out_ports)

    @staticmethod
    def _clone(packet: Packet) -> Packet:
        return Packet(
            headers=packet.headers,
            size_bytes=packet.size_bytes,
            flow_id=packet.flow_id,
            src=packet.src,
            dst=packet.dst,
            sent_at=packet.sent_at,
            accumulated_delay=packet.accumulated_delay,
            hops=packet.hops,
        )

    _BUFFER_LIMIT = 16

    def _buffer_packet(self, switch: Switch, packet: Packet, in_port: int) -> None:
        key = (switch.dpid, in_port, packet.flow_id)
        parked = self._buffered.setdefault(key, deque())
        if len(parked) < self._BUFFER_LIMIT:
            parked.append(packet)
        else:
            self._policy_drop(packet, "policy")

    def apply_packet_out(self, message, ports: List[int]) -> None:
        """Release packets parked for (dpid, in_port, flow) on the ports
        the controller chose (or via freshly installed rules)."""
        key = (message.dpid, message.in_port, message.flow_id)
        parked = self._buffered.pop(key, None)
        if not parked:
            return
        switch = self.topology.switch_by_dpid(message.dpid)
        expanded = switch.pipeline.expand_reserved(message.in_port, ports)
        for packet in parked:
            self._emit_on_ports(switch, packet, expanded)

    def _emit_on_ports(self, switch: Switch, packet: Packet, out_ports: List[int]) -> None:
        first = True
        for number in out_ports:
            port = switch.ports.get(number)
            if port is None or not port.live:
                self.stats["drops_no_route"] += 1
                continue
            copy = packet if first else self._clone(packet)
            first = False
            self.queue_for(port.link.direction_from(port)).enqueue(copy)

    def _raise_packet_in(
        self, switch: Switch, packet: Packet, in_port: int, result
    ) -> Optional[List[int]]:
        self.stats["packet_ins"] += 1
        if self.control is None:
            return None
        flow = self.flows.get(packet.flow_id)
        message = PacketIn(
            dpid=switch.dpid,
            in_port=in_port,
            reason=PacketInReason.NO_MATCH if result.miss else PacketInReason.ACTION,
            headers=packet.headers,
            rate_bps=flow.demand_bps if flow else 0.0,
            size_bytes=packet.size_bytes,
            flow_id=packet.flow_id,
        )
        return self.control.deliver_packet_in(message)

    # ------------------------------------------------------------------
    # Sinks: delivery and drops
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        self.stats["packets_delivered"] += 1
        flow = self.flows.get(packet.flow_id)
        if flow is None:
            return
        flow.bytes_delivered += packet.size_bytes
        transport = self.transports.get(packet.flow_id)
        if transport is not None:
            transport.on_delivered(packet)
        if (
            flow.elastic
            and flow.size_bytes is not None
            and flow.bytes_delivered >= flow.size_bytes
            and not flow.finished
        ):
            self._complete(flow)

    def _on_congestion_drop(self, packet: Packet, direction: LinkDirection) -> None:
        self.stats["drops_congestion"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "packet.drop",
                reason="congestion",
                packet=packet.packet_id,
                flow=packet.flow_id,
                link=str(direction),
            )
        self._loss_feedback(packet)

    def _loss_feedback(self, packet: Packet) -> None:
        """Oracle loss notification to the source after ~one RTT."""
        transport = self.transports.get(packet.flow_id)
        if transport is None:
            return
        if isinstance(transport, AimdTransport):
            delay = max(2.0 * packet.accumulated_delay, transport.srtt, 1e-6)
        else:
            delay = max(2.0 * packet.accumulated_delay, 1e-6)
        self.sim.call_in(delay, self._loss_event, packet)

    def _loss_event(self, sim, packet: Packet) -> None:
        transport = self.transports.get(packet.flow_id)
        if transport is not None:
            transport.on_loss(packet)

    def _policy_drop(self, packet: Packet, kind: str) -> None:
        """Drops with no congestion signal (blackhole, miss, loops).

        Real TCP would stall waiting for a timeout here; the oracle gives
        no feedback, so AIMD windows stall exactly the same way.
        """
        if kind == "loop":
            self.stats["drops_loop"] += 1
        elif kind == "no_route":
            self.stats["drops_no_route"] += 1
        else:
            self.stats["drops_policy"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "packet.drop",
                reason=kind,
                packet=packet.packet_id,
                flow=packet.flow_id,
            )
        flow = self.flows.get(packet.flow_id)
        if flow is not None:
            flow.bytes_dropped += packet.size_bytes
