"""The data-plane engine contract.

:class:`Engine` is what :class:`~repro.core.simulator.Horse` and
:class:`~repro.control.channel.ControlChannel` may assume about the
engine they hold, so neither asks which kind it is: state and
bookkeeping common to the flow, packet and hybrid engines live here
once, and the calls only some engines act on default to doing nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.config import HorseConfig
from ..errors import SimulationError
from ..net.node import Switch
from ..openflow.headers import HeaderFields
from ..openflow.messages import PacketIn, PacketInReason, PortStatus
from ..openflow.switch import PipelineResult
from .faults import LinkStateChange
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..flowsim.flow import Flow
    from ..net.link import Link
    from ..net.topology import Topology


class Engine:
    """Base of the three data-plane engines.

    A subclass sets :attr:`name` and ``self.stats`` (its outcome
    counters) and implements :meth:`_admit`; the rest has defaults.

    Parameters
    ----------
    sim:
        The shared discrete-event kernel.
    topology:
        The network; every switch must have a pipeline attached before
        traffic arrives (see :func:`repro.openflow.switch.attach_pipeline`).
    control:
        Optional control-plane channel.  Needs ``deliver_packet_in(msg)``
        returning an optional list of output port numbers (packet-out),
        ``deliver_port_status(msg)``, and
        ``deliver_flow_removed_entry(...)``.
    config:
        The run's :class:`~repro.core.config.HorseConfig` (None means
        ``HorseConfig()``); each engine reads its own knobs from it.
    """

    #: The ``"engine"`` field of :meth:`engine_stats`.
    name = ""
    #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
    #: None; emission sites check ``is not None``.
    trace_bus = None

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        control: Optional[object] = None,
        config: Optional[HorseConfig] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.control = control
        self.config = config or HorseConfig()
        #: Every submitted flow by id, in submission order.
        self.flows: Dict[int, Flow] = {}
        #: Flow lifecycle observers: callables ``(event_name, flow)``.
        self.observers: List[Callable[[str, Flow], None]] = []

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def submit(self, flow: Flow) -> Flow:
        """Schedule a flow to start at ``flow.start_time``."""
        if flow.flow_id in self.flows:
            raise SimulationError(f"flow {flow.flow_id} submitted twice")
        if flow.start_time < self.sim.now:
            raise SimulationError(
                f"flow {flow.flow_id} starts at {flow.start_time} "
                f"before now={self.sim.now}"
            )
        self.flows[flow.flow_id] = flow
        self._admit(flow)
        return flow

    def _admit(self, flow: Flow) -> None:
        """Schedule whatever starts an accepted flow."""
        raise NotImplementedError

    def fail_link_at(self, time: float, a: str, b: str) -> None:
        """Schedule a link failure input event."""
        self.sim.schedule(LinkStateChange(time, self, a, b, up=False))

    def restore_link_at(self, time: float, a: str, b: str) -> None:
        """Schedule a link recovery input event."""
        self.sim.schedule(LinkStateChange(time, self, a, b, up=True))

    def on_link_state(self, a: str, b: str, up: bool) -> Link:
        """Flip the link between ``a`` and ``b`` (``link_generation``
        moves) and send ``PortStatus`` for each switch end; returns it."""
        link = (self.topology.restore_link if up else self.topology.fail_link)(a, b)
        for port in (link.port_a, link.port_b):
            if isinstance(port.node, Switch) and self.control is not None:
                self.control.deliver_port_status(
                    PortStatus(dpid=port.node.dpid, port_no=port.number, link_up=up))
        return link

    # ------------------------------------------------------------------
    # Run lifecycle (Horse calls these around Simulator.run)
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Last step before the kernel runs; idempotent."""

    def finish(self) -> None:
        """Accrue statistics up to the current instant (call after run)."""
        self.sync_statistics()

    # ------------------------------------------------------------------
    # Control-plane protocol (the channel calls these)
    # ------------------------------------------------------------------
    def notify_rules_changed(self, dpid: int) -> None:
        """Southbound state of ``dpid`` changed."""

    def apply_packet_out(self, message, ports: List[int]) -> None:
        """An asynchronous packet-out for ``message`` arrived."""

    def _resolve_punt(
        self,
        switch: Switch,
        in_port: int,
        headers: HeaderFields,
        flow_id: int,
        size_bytes: int,
        punted: PipelineResult,
    ) -> Optional[PipelineResult]:
        """Raise the packet-in for ``punted``, a pass through ``switch``
        that punted; what the switch does with the traffic once the
        controller has answered, or None when no answer came back (no
        channel, an asynchronous one, or a controller that passed).

        A table miss is never a punt (OpenFlow 1.3 drops it), so the
        reason is always ACTION.  On an answer the pipeline runs once
        more - the controller may have installed rules - and if that pass
        matches without punting again it decides; otherwise the traffic
        leaves on the packet-out's ports, headers as they came in.
        Either way the result returned carries the punting pass's
        entries, buckets and meters ahead of its own: the caller charges
        it as the traffic's one result.
        """
        flow = self.flows.get(flow_id)
        reply = self._packet_in(
            PacketIn(
                dpid=switch.dpid,
                in_port=in_port,
                reason=PacketInReason.ACTION,
                headers=headers,
                rate_bps=flow.demand_bps if flow is not None else 0.0,
                size_bytes=size_bytes,
                flow_id=flow_id,
            )
        )
        if reply is None:
            return None
        answer = switch.pipeline.process(headers, in_port)
        if answer.miss or answer.to_controller:
            answer = PipelineResult(
                outputs=self._packet_out(switch, in_port, headers, reply)
            )
        answer.matched_entries[:0] = punted.matched_entries
        answer.matched_tables[:0] = punted.matched_tables
        answer.group_hits[:0] = punted.group_hits
        answer.meter_ids[:0] = punted.meter_ids
        return answer

    def _packet_in(self, message: PacketIn) -> Optional[List[int]]:
        """Deliver a packet-in: the packet-out ports of a synchronous
        answer, else None."""
        self.stats["packet_ins"] += 1
        if self.control is None:
            return None
        return self.control.deliver_packet_in(message)

    @staticmethod
    def _packet_out(
        switch: Switch, in_port: int, headers: HeaderFields, ports: List[int]
    ) -> List[Tuple[int, HeaderFields]]:
        """Where a packet-out to ``ports`` sends a packet that came in
        on ``in_port``: ``(port, headers)`` pairs, reserved ports
        expanded."""
        return [
            (port, headers)
            for port in switch.pipeline.expand_reserved(in_port, ports)
        ]

    def sync_statistics(self, now: Optional[float] = None) -> None:
        """Bring lazily accrued counters up to ``now`` before a read."""

    def enable_entry_expiry(self, interval: float = 1.0) -> None:
        """Periodically expire timed-out flow entries, emitting
        FlowRemoved messages to the control plane."""
        self.sim.every(interval, self._expire_tick)

    def _expire_tick(self, sim: Simulator, t: float) -> None:
        # Idle timeouts and FlowRemoved counts must see lazy accrual.
        self.sync_statistics(t)
        any_removed = False
        for switch in self.topology.switches:
            pipeline = switch.pipeline
            if pipeline is None:
                continue
            for table_id, entry, reason in pipeline.expire(t):
                any_removed = True
                if self.control is not None:
                    self.control.deliver_flow_removed_entry(
                        switch.dpid, table_id, entry, reason, now=t
                    )
        if any_removed:
            self._on_entries_expired()

    def _on_entries_expired(self) -> None:
        """A sweep removed at least one entry."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate outcome statistics (copies the counters)."""
        out = dict(self.stats)
        out["total_flows"] = len(self.flows)
        out["bytes_sent"] = sum(f.bytes_sent for f in self.flows.values())
        out["bytes_delivered"] = sum(f.bytes_delivered for f in self.flows.values())
        out["bytes_dropped"] = sum(f.bytes_dropped for f in self.flows.values())
        return out

    def engine_stats(self) -> dict:
        """Engine internals for run diagnostics.

        Deterministic for a given workload (no wall-clock content), so
        it is safe to include in byte-compared JSON reports.
        """
        return {"engine": self.name, **self._diagnostics()}

    def _diagnostics(self) -> dict:
        """The engine-specific fields of :meth:`engine_stats`."""
        return self.stats
