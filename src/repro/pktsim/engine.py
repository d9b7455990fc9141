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

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.config import HorseConfig
from ..net.link import LinkDirection, Port
from ..net.node import Host, Switch
from ..net.topology import Topology
from ..flowsim.flow import Flow, FlowState
from ..openflow.headers import HeaderFields
from ..sim.engine import Engine
from ..sim.kernel import Simulator
from .packet import Packet
from .queues import OutputQueue
from .transport import AimdTransport, Transport, make_transport

#: Forwarding decisions are dropped wholesale beyond this many keys.
_DECISION_MEMO_MAX = 4096

#: Where a decision sends a packet: per output, the queue (None for a
#: missing or down port) and the headers the copy leaves with.
Egress = List[Tuple[Optional[OutputQueue], HeaderFields]]


class PacketLevelEngine(Engine):
    """Per-packet simulation over OpenFlow pipelines.

    Accepts the same :class:`~repro.flowsim.flow.Flow` objects as the
    flow-level engine — ``elastic`` flows get an AIMD transport, others
    constant-bit-rate — so one workload definition drives both engines.

    Parameters
    ----------
    sim, topology, control, config:
        See :class:`~repro.sim.engine.Engine`.  The engine reads
        ``mtu_bytes`` (packet size used by the transports),
        ``queue_capacity_packets`` (drop-tail depth of every output
        queue) and ``max_hops`` (hop guard against forwarding loops).
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
        super().__init__(sim, topology, control, config)
        self.mtu_bytes = self.config.mtu_bytes
        self.queue_capacity_packets = self.config.queue_capacity_packets
        self.max_hops = self.config.max_hops
        #: Per-direction transmit-rate override passed to new queues.
        self.capacity_fn = capacity_fn
        self.transports: Dict[int, Transport] = {}
        self._queues: Dict[LinkDirection, OutputQueue] = {}
        self._uplinks: Dict[str, OutputQueue] = {}  # host name -> its uplink queue
        # Packets parked at a switch awaiting an asynchronous packet-out,
        # keyed by (dpid, in_port, flow_id); bounded per key.
        self._buffered: Dict[tuple, deque] = {}
        # Forwarding decisions by (pipeline, in_port, flow id): ((version,
        # link generation, headers), result, egress, (table, hit) lookups).
        self._decisions: Dict[tuple, tuple] = {}
        self.stats = dict.fromkeys((
            "packets_sent", "packets_delivered", "drops_congestion", "drops_meter",
            "drops_policy", "drops_loop", "drops_no_route", "packet_ins", "completed",
        ), 0)

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
            sim.call_at(flow.start_time + flow.duration_s, self._end_flow, flow)
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
                "packet.enqueue", packet=packet.packet_id,
                flow=packet.flow_id, size=packet.size_bytes,
            )
        flow.bytes_sent += packet.size_bytes
        uplink = self._uplinks.get(flow.src)
        if uplink is None:  # resolved once; the link's state is read per packet
            port = self.topology.host(flow.src).uplink_port
            uplink = self.queue_for(port.link.direction_from(port))
            self._uplinks[flow.src] = uplink
        if not uplink.direction.link.up:
            self._policy_drop(packet, "no_route")
            return
        uplink.enqueue(packet)

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
        """One hop handler: deliver at a host; decide, charge, hand off at a switch."""
        node = dst_port.node
        pipeline = node.pipeline if isinstance(node, Switch) else None
        if pipeline is None:
            if not isinstance(node, Host):
                self._policy_drop(packet, "no_route")
            elif node.name == packet.dst:
                self._deliver(packet)
            # Frames for other hosts are discarded silently.
            return
        # ``hops`` counts links crossed, the host uplink included, so
        # this is the packet's hops-th switch: like a flow-engine branch,
        # a packet crosses at most ``max_hops`` switches.
        if packet.hops > self.max_hops:
            self._policy_drop(packet, "loop")
            return
        in_port = dst_port.number
        # The flow id (cheap to hash) locates a decision; a hit needs its headers.
        key = (pipeline, in_port, packet.flow_id)
        stamp = (pipeline.version, self.topology.link_generation, packet.headers)
        memo = self._decisions.get(key)
        if memo is not None and memo[0] == stamp:
            _, result, egress, lookups = memo
            # A hit counts the table lookups the pipeline would have made.
            for table, matched in lookups:
                table.lookup_count += 1
                table.matched_count += matched
        else:
            result = pipeline.process(packet.headers, in_port)
            punted = result.to_controller
            if punted:
                answer = self._resolve_punt(
                    node, in_port, packet.headers, packet.flow_id,
                    packet.size_bytes, result
                )
                if answer is not None:
                    result = answer
                elif self.control is not None and not result.outputs:
                    # Asynchronous control: park the packet like a real
                    # switch buffers it, released by apply_packet_out.
                    self._buffer_packet(node, packet, in_port)
                    return
            egress = self._resolve(node, result.outputs)
            if not punted:
                lookups = [(pipeline.tables[t], 1) for t in result.matched_tables]
                if result.missed_table is not None:
                    lookups.append((pipeline.tables[result.missed_table], 0))
                if len(self._decisions) >= _DECISION_MEMO_MAX:
                    self._decisions.clear()
                self._decisions[key] = (stamp, result, egress, lookups)
        # Account matched entries (per-packet granularity).
        size, now = packet.size_bytes, self.sim.now
        for entry in result.matched_entries:
            entry.account(size, 1, now=now)
        for group, index in result.group_hits:
            group.account(index, size)
        if result.dropped:
            self._policy_drop(packet, "policy")
            return
        # Meters: token-bucket admission; any red band drops the packet.
        for meter_id in result.meter_ids:
            if not pipeline.meters.get(meter_id).admit_packet(size, now):
                self.stats["drops_meter"] += 1
                self._trace_drop(packet, "meter")
                self._loss_feedback(packet)
                return
        if not egress:
            self._policy_drop(packet, "policy")
        elif len(egress) == 1 and egress[0][0] is not None:
            queue, packet.headers = egress[0]
            queue.enqueue(packet)
        else:
            self._emit(packet, egress)

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
        for packet in parked:
            outputs = self._packet_out(switch, message.in_port, packet.headers, ports)
            self._emit(packet, self._resolve(switch, outputs))

    def _resolve(
        self, switch: Switch, outputs: List[Tuple[int, HeaderFields]]
    ) -> Egress:
        """The egress of ``(port, headers)`` outputs leaving ``switch``."""
        egress: Egress = []
        for number, headers in outputs:
            port = switch.ports.get(number)
            if port is None or not port.live:
                egress.append((None, headers))
            else:
                egress.append((self.queue_for(port.link.direction_from(port)), headers))
        return egress

    def _emit(self, packet: Packet, egress: Egress) -> None:
        """Send ``packet`` (and a copy per further output) out on
        ``egress``; a packet of which no copy leaves is lost here."""
        sent = False
        for queue, headers in egress:
            if queue is None:
                self.stats["drops_no_route"] += 1
                continue
            copy = packet.copy() if sent else packet
            sent = True
            copy.headers = headers
            queue.enqueue(copy)
        if not sent:
            self._lost(packet, "no_route")

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
        self._trace_drop(packet, "congestion", link=str(direction))
        self._loss_feedback(packet)

    def _loss_feedback(self, packet: Packet) -> None:
        """Oracle loss notification to the source after ~one RTT."""
        transport = self.transports.get(packet.flow_id)
        if transport is None:
            return
        srtt = transport.srtt if isinstance(transport, AimdTransport) else 0.0
        delay = max(2.0 * packet.accumulated_delay, srtt, 1e-6)
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
        self.stats["drops_" + kind] += 1
        self._lost(packet, kind)

    def _lost(self, packet: Packet, kind: str) -> None:
        """Charge a dropped packet to its flow's ``bytes_dropped``."""
        self._trace_drop(packet, kind)
        flow = self.flows.get(packet.flow_id)
        if flow is not None:
            flow.bytes_dropped += packet.size_bytes

    def _trace_drop(self, packet: Packet, reason: str, **extra) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "packet.drop", reason=reason, packet=packet.packet_id,
                flow=packet.flow_id, **extra,
            )
