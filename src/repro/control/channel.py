"""The in-memory control channel.

The poster: "there are no real OpenFlow connections between the control
and the data plane" — to reduce state, control messages are plain method
calls carrying the dataclasses of :mod:`repro.openflow.messages`.  The
channel still preserves the *semantics* of a connection: southbound
messages mutate switch pipelines (optionally after a configurable
control latency), northbound events reach the controller, and the data-
plane engines are notified whenever rules change so affected flows are
re-routed.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from ..errors import ControlPlaneError, OpenFlowError, UnknownDatapathError
from ..net.topology import Topology
from ..openflow.flowtable import FlowEntry
from ..openflow.messages import (
    BarrierReply,
    BarrierRequest,
    ErrorMsg,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    GroupModCommand,
    Message,
    MeterMod,
    MeterModCommand,
    PacketIn,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    TableStatsReply,
    TableStatsRequest,
)
from ..openflow.switch import OpenFlowPipeline
from ..sim.engine import Engine
from ..sim.kernel import Simulator
from .transport import ControlTransport, InprocTransport

logger = logging.getLogger(__name__)


class ControlChannel:
    """Connects a controller to every switch pipeline in a topology.

    Parameters
    ----------
    sim:
        Shared kernel (used when ``latency_s`` > 0).
    topology:
        Switches are looked up by dpid at message time, so switches added
        later are visible automatically.
    controller:
        Object with ``on_packet_in/on_port_status/on_flow_removed``
        handlers; usually :class:`repro.control.controller.Controller`.
    latency_s:
        One-way control-plane delay.  Zero (default) makes the channel
        synchronous: reactive rule setup completes within the data-plane
        event that triggered it, which is the poster's abstraction.
    transport:
        Northbound delivery strategy (see
        :mod:`repro.control.transport`).  None selects the in-process
        transport, which is the channel's historical behavior; the wire
        gateway (:mod:`repro.wire`) plugs in here.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        controller: Optional[object] = None,
        latency_s: float = 0.0,
        transport: Optional[ControlTransport] = None,
    ) -> None:
        if latency_s < 0:
            raise ControlPlaneError(f"latency must be >= 0, got {latency_s}")
        self.sim = sim
        self.topology = topology
        self.controller = controller
        self.latency_s = latency_s
        #: Data-plane engines notified on rule changes, synced before
        #: statistics reads and handed asynchronous packet-outs.
        self.engines: List[Engine] = []
        self.stats = {
            "flow_mods": 0,
            "group_mods": 0,
            "meter_mods": 0,
            "packet_ins": 0,
            "packet_outs": 0,
            "stats_requests": 0,
            "counter_pushes": 0,
            "errors": 0,
        }
        #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
        #: None; emission sites check ``is not None``.
        self.trace_bus = None
        #: Live push-mode counter subscriptions (see
        #: :meth:`subscribe_counters`).
        self.subscriptions: List[CounterSubscription] = []
        self.transport: ControlTransport = (
            transport if transport is not None else InprocTransport()
        )
        self.transport.bind(self)
        if controller is not None and hasattr(controller, "attach"):
            controller.attach(self)

    def stats_snapshot(self) -> dict:
        """A copy of the channel's message counters (picklable metrics
        source for :class:`repro.telemetry.MetricsRegistry`)."""
        return dict(self.stats)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_engine(self, engine: Engine) -> None:
        """Register a data-plane engine."""
        if engine not in self.engines:
            self.engines.append(engine)

    def _pipeline(self, dpid: int) -> OpenFlowPipeline:
        try:
            switch = self.topology.switch_by_dpid(dpid)
        except Exception:
            raise UnknownDatapathError(f"no switch with dpid {dpid}") from None
        if switch.pipeline is None:
            raise UnknownDatapathError(f"switch {switch.name} has no pipeline")
        return switch.pipeline

    def datapath_ids(self) -> List[int]:
        """All dpids currently on the channel."""
        return sorted(s.dpid for s in self.topology.switches)

    # ------------------------------------------------------------------
    # Southbound: controller -> switches
    # ------------------------------------------------------------------
    def send(self, message: Message) -> Optional[Message]:
        """Send a southbound message.

        Synchronous channels apply immediately and return the reply (for
        stats requests).  With latency, application is scheduled and None
        is returned — stats repliers call the controller handler instead.
        """
        if self.latency_s == 0.0:
            return self._apply(message)
        # Deferred deliveries are bound-method events (not closures) so a
        # pending control message survives checkpoint/restore pickling.
        self.sim.call_in(self.latency_s, self._apply_async, message)
        return None

    def send_all(self, messages) -> List[Optional[Message]]:
        """Send a batch of southbound messages in order."""
        return [self.send(m) for m in messages]

    def apply_southbound(self, message: Message) -> Optional[Message]:
        """Apply a southbound message immediately and return the reply
        (stats/barrier) or the ErrorMsg the switch rejected it with.

        Public entry point for transports: the wire gateway decodes
        frames off a socket and applies them here, from the simulation
        thread, so pipeline mutation semantics (and the stats counters)
        are identical whichever transport carried the message.
        """
        return self._apply(message)

    def deliver_packet_out(self, message: PacketIn, ports: List[int]) -> None:
        """Hand an asynchronous packet-out to the data-plane engines.

        Public entry point for transports answering a packet-in after
        the fact (the wire path when the reply misses the synchronous
        window).
        """
        self._deliver_packet_out(message, ports)

    def _apply_async(self, sim: Simulator, message: Message) -> None:
        reply = self._apply(message)
        # Replies travel back after another latency.
        if reply is not None and self.controller is not None:
            self.sim.call_in(self.latency_s, self._deliver_reply, reply)

    def _deliver_reply(self, sim: Simulator, reply: Message) -> None:
        self.controller.on_reply(reply)

    def _apply(self, message: Message) -> Optional[Message]:
        try:
            return self._dispatch(message)
        except (OpenFlowError, UnknownDatapathError) as exc:
            self.stats["errors"] += 1
            error = ErrorMsg(
                dpid=message.dpid,
                error_type=type(exc).__name__,
                detail=str(exc),
                failed_xid=message.xid,
            )
            if self.controller is not None and hasattr(self.controller, "on_error"):
                self.controller.on_error(error)
            return error

    def _dispatch(self, message: Message) -> Optional[Message]:
        if isinstance(message, FlowMod):
            self._apply_flow_mod(message)
            return None
        if isinstance(message, GroupMod):
            self._apply_group_mod(message)
            return None
        if isinstance(message, MeterMod):
            self._apply_meter_mod(message)
            return None
        if isinstance(message, PortStatsRequest):
            return self._port_stats(message)
        if isinstance(message, FlowStatsRequest):
            return self._flow_stats(message)
        if isinstance(message, TableStatsRequest):
            return self._table_stats(message)
        if isinstance(message, BarrierRequest):
            if self.trace_bus is not None:
                self.trace_bus.emit("channel.barrier", dpid=message.dpid)
            return BarrierReply(dpid=message.dpid, xid=message.xid)
        raise ControlPlaneError(f"unsupported southbound message {message!r}")

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        self.stats["flow_mods"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.flow_mod",
                dpid=mod.dpid,
                command=mod.command.name,
                table=mod.table_id,
                priority=mod.priority,
            )
        pipeline = self._pipeline(mod.dpid)
        table = pipeline.table(mod.table_id)
        if mod.command is FlowModCommand.ADD:
            entry = FlowEntry(
                match=mod.match,
                priority=mod.priority,
                instructions=mod.instructions,
                idle_timeout=mod.idle_timeout,
                hard_timeout=mod.hard_timeout,
                cookie=mod.cookie,
                install_time=self.sim.now,
            )
            table.add(entry, check_overlap=mod.check_overlap)
        elif mod.command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            table.modify(
                mod.match,
                mod.instructions,
                priority=mod.priority,
                strict=mod.command is FlowModCommand.MODIFY_STRICT,
            )
        else:
            removed = table.delete(
                mod.match,
                priority=mod.priority,
                strict=mod.command is FlowModCommand.DELETE_STRICT,
                cookie=mod.cookie or None,
            )
            for entry in removed:
                self.deliver_flow_removed_entry(
                    mod.dpid,
                    mod.table_id,
                    entry,
                    "delete",
                    now=self.sim.now,
                )
        self._rules_changed(mod.dpid)

    def _apply_group_mod(self, mod: GroupMod) -> None:
        self.stats["group_mods"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.group_mod", dpid=mod.dpid, command=mod.command.name
            )
        pipeline = self._pipeline(mod.dpid)
        if mod.command is GroupModCommand.ADD:
            pipeline.groups.add(mod.group_id, mod.group_type, mod.buckets)
        elif mod.command is GroupModCommand.MODIFY:
            pipeline.groups.modify(mod.group_id, mod.group_type, mod.buckets)
        else:
            pipeline.groups.delete(mod.group_id)
        self._rules_changed(mod.dpid)

    def _apply_meter_mod(self, mod: MeterMod) -> None:
        self.stats["meter_mods"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.meter_mod", dpid=mod.dpid, command=mod.command.name
            )
        pipeline = self._pipeline(mod.dpid)
        if mod.command is MeterModCommand.ADD:
            pipeline.meters.add(mod.meter_id, mod.bands)
        elif mod.command is MeterModCommand.MODIFY:
            pipeline.meters.modify(mod.meter_id, mod.bands)
        else:
            pipeline.meters.delete(mod.meter_id)
        self._rules_changed(mod.dpid)

    def _rules_changed(self, dpid: int) -> None:
        for engine in self.engines:
            engine.notify_rules_changed(dpid)

    # ------------------------------------------------------------------
    # Stats repliers
    # ------------------------------------------------------------------
    def _sync_engines(self) -> None:
        """Bring lazily-accrued data-plane counters up to now before a
        statistics read (the poster's state export to the control plane)."""
        for engine in self.engines:
            engine.sync_statistics(self.sim.now)

    def _port_stats(self, request: PortStatsRequest) -> PortStatsReply:
        self.stats["stats_requests"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.stats", kind="port", dpid=request.dpid
            )
        self._sync_engines()
        switch = self.topology.switch_by_dpid(request.dpid)
        stats = [
            port.stats()
            for number, port in sorted(switch.ports.items())
            if request.port_no is None or number == request.port_no
        ]
        return PortStatsReply(dpid=request.dpid, xid=request.xid, stats=stats)

    def _flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        self.stats["stats_requests"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.stats", kind="flow", dpid=request.dpid
            )
        self._sync_engines()
        pipeline = self._pipeline(request.dpid)
        tables = (
            [pipeline.table(request.table_id)]
            if request.table_id is not None
            else pipeline.tables
        )
        stats = []
        for table in tables:
            for entry in table:
                if request.cookie is not None and entry.cookie != request.cookie:
                    continue
                if request.match is not None and not request.match.subsumes(
                    entry.match
                ):
                    continue
                stats.append(
                    {
                        "table_id": table.table_id,
                        "match": entry.match,
                        "priority": entry.priority,
                        "cookie": entry.cookie,
                        "packet_count": entry.packet_count,
                        "byte_count": entry.byte_count,
                        "duration_s": self.sim.now - entry.install_time,
                    }
                )
        return FlowStatsReply(dpid=request.dpid, xid=request.xid, stats=stats)

    def _table_stats(self, request: TableStatsRequest) -> TableStatsReply:
        self.stats["stats_requests"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.stats", kind="table", dpid=request.dpid
            )
        pipeline = self._pipeline(request.dpid)
        return TableStatsReply(
            dpid=request.dpid,
            xid=request.xid,
            stats=[t.stats() for t in pipeline.tables],
        )

    # ------------------------------------------------------------------
    # Public statistics API
    # ------------------------------------------------------------------
    def port_stats(
        self, dpid: int, port_no: Optional[int] = None
    ) -> PortStatsReply:
        """Synchronously read a switch's port counters.

        This is the supported query surface (the message-level replier is
        an implementation detail): engines are synced first, so counters
        reflect all traffic up to ``sim.now``.
        """
        return self._port_stats(PortStatsRequest(dpid=dpid, port_no=port_no))

    def flow_stats(
        self,
        dpid: int,
        table_id: Optional[int] = None,
        match=None,
        cookie: Optional[int] = None,
    ) -> FlowStatsReply:
        """Synchronously read a switch's flow-entry counters, optionally
        filtered by table, match, or cookie."""
        return self._flow_stats(
            FlowStatsRequest(
                dpid=dpid, table_id=table_id, match=match, cookie=cookie
            )
        )

    # ------------------------------------------------------------------
    # Push-based monitoring: threshold/delta-triggered counter feeds
    # ------------------------------------------------------------------
    def subscribe_counters(
        self,
        callback,
        interval_s: float,
        dpids: Optional[List[int]] = None,
        min_delta_bytes: float = 0.0,
        start: Optional[float] = None,
    ) -> "CounterSubscription":
        """Register a push-mode port-counter feed.

        Every ``interval_s`` the channel samples port counters on
        ``dpids`` (default: every datapath, in topology order) and calls
        ``callback(t, replies)`` with one :class:`PortStatsReply` per
        datapath.  With ``min_delta_bytes`` > 0, a push is suppressed
        unless some port's tx or rx counter moved at least that much
        since the *last delivered* push (the first sample is always
        delivered so subscribers can baseline).  Cancel with
        :meth:`CounterSubscription.cancel`.
        """
        if interval_s <= 0:
            raise ControlPlaneError(
                f"subscription interval must be > 0, got {interval_s}"
            )
        if dpids is None:
            dpids = [s.dpid for s in self.topology.switches]
        subscription = CounterSubscription(
            self, callback, interval_s, list(dpids), min_delta_bytes
        )
        self.subscriptions.append(subscription)
        self.sim.every(interval_s, subscription.tick, start=start)
        return subscription

    def push_counters(self, subscription: "CounterSubscription", t: float) -> None:
        """Sample one subscription's datapaths and deliver if triggered."""
        replies = [
            self._port_stats(PortStatsRequest(dpid=dpid))
            for dpid in subscription.dpids
        ]
        if not subscription.triggered(replies):
            return
        self.stats["counter_pushes"] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "channel.counter_push",
                datapaths=len(replies),
                min_delta_bytes=subscription.min_delta_bytes,
            )
        subscription.callback(t, replies)

    # ------------------------------------------------------------------
    # Northbound: switches/engines -> controller
    # ------------------------------------------------------------------
    def deliver_packet_in(self, message: PacketIn) -> Optional[List[int]]:
        """Deliver a packet-in.  Returns the controller's packet-out port
        list when synchronous, else None (handled later)."""
        self.stats["packet_ins"] += 1
        ports = self.transport.packet_in(message)
        if ports:
            self.stats["packet_outs"] += 1
        return ports

    def async_packet_in(self, sim: Simulator, message: PacketIn) -> None:
        """Handle a delayed packet-in; ship any packet-out back to the
        data plane after another channel latency."""
        ports = self.controller.on_packet_in(message)
        if not ports:
            return
        self.stats["packet_outs"] += 1
        self.sim.call_in(
            self.latency_s, self._async_packet_out, message, list(ports)
        )

    def _async_packet_out(
        self, sim: Simulator, message: PacketIn, ports: List[int]
    ) -> None:
        self._deliver_packet_out(message, ports)

    def _deliver_packet_out(self, message: PacketIn, ports: List[int]) -> None:
        for engine in self.engines:
            engine.apply_packet_out(message, ports)

    def deliver_port_status(self, message: PortStatus) -> None:
        self.transport.port_status(message)

    def async_port_status(self, sim: Simulator, message: PortStatus) -> None:
        self.controller.on_port_status(message)

    def deliver_flow_removed_entry(
        self,
        dpid: int,
        table_id: int,
        entry: FlowEntry,
        reason: str,
        now: float,
    ) -> None:
        """Build and deliver a FlowRemoved from a removed entry."""
        if self.controller is None and not self.transport.external:
            return
        message = FlowRemoved(
            dpid=dpid,
            table_id=table_id,
            match=entry.match,
            priority=entry.priority,
            reason={
                "idle": FlowRemovedReason.IDLE_TIMEOUT,
                "hard": FlowRemovedReason.HARD_TIMEOUT,
                "delete": FlowRemovedReason.DELETE,
            }[reason],
            cookie=entry.cookie,
            duration_s=now - entry.install_time,
            packet_count=entry.packet_count,
            byte_count=entry.byte_count,
        )
        self.transport.flow_removed(message)

    def async_flow_removed(self, sim: Simulator, message: FlowRemoved) -> None:
        self.controller.on_flow_removed(message)


class CounterSubscription:
    """One push-mode counter feed (see ControlChannel.subscribe_counters).

    Holds the delta baseline used for ``min_delta_bytes`` triggering: the
    per-port (tx_bytes, rx_bytes) as of the last *delivered* push, so
    suppressed samples accumulate toward the threshold instead of
    resetting it.  All scheduled callbacks are bound methods, so a live
    subscription survives checkpoint/restore pickling.
    """

    def __init__(
        self,
        channel: ControlChannel,
        callback,
        interval_s: float,
        dpids: List[int],
        min_delta_bytes: float,
    ) -> None:
        self.channel = channel
        self.callback = callback
        self.interval_s = interval_s
        self.dpids = dpids
        self.min_delta_bytes = min_delta_bytes
        self.active = True
        self.pushes = 0
        # (dpid, port_no) -> (tx_bytes, rx_bytes) at the last delivery.
        self._last: dict = {}

    def cancel(self) -> None:
        """Stop the feed (takes effect at the next scheduled tick)."""
        self.active = False

    def tick(self, sim, t: float) -> None:
        """Periodic-event callback; ends its series once cancelled."""
        if not self.active:
            if self in self.channel.subscriptions:
                self.channel.subscriptions.remove(self)
            raise StopIteration
        self.channel.push_counters(self, t)

    def triggered(self, replies) -> bool:
        """Decide delivery and, if delivering, advance the baseline."""
        current = {
            (reply.dpid, stat["port_no"]): (stat["tx_bytes"], stat["rx_bytes"])
            for reply in replies
            for stat in reply.stats
        }
        deliver = (
            not self._last
            or self.min_delta_bytes <= 0
            or any(
                abs(counters[0] - self._last.get(key, (0, 0))[0])
                >= self.min_delta_bytes
                or abs(counters[1] - self._last.get(key, (0, 0))[1])
                >= self.min_delta_bytes
                for key, counters in current.items()
            )
        )
        if deliver:
            self._last = current
            self.pushes += 1
        return deliver
