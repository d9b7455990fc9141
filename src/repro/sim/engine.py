"""The data-plane engine contract.

:class:`Engine` is what :class:`~repro.core.simulator.Horse` and
:class:`~repro.control.channel.ControlChannel` may assume about the
engine they hold, so neither asks which kind it is: state and
bookkeeping common to the flow, packet and hybrid engines live here
once, and the calls only some engines act on default to doing nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..errors import ExperimentError, SimulationError
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..flowsim.flow import Flow
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
    """

    #: The ``"engine"`` field of :meth:`engine_stats`.
    name = ""
    #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
    #: None; emission sites check ``is not None``.
    trace_bus = None
    #: Per-phase profiler or None (the kernel charges "dispatch").
    profiler = None

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        control: Optional[object] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.control = control
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

    def submit_all(self, flows: Iterable[Flow]) -> List[Flow]:
        """Schedule a batch of flows (a traffic-matrix worth of events)."""
        return [self.submit(f) for f in flows]

    def _admit(self, flow: Flow) -> None:
        """Schedule whatever starts an accepted flow."""
        raise NotImplementedError

    def fail_link_at(self, time: float, a: str, b: str) -> None:
        """Schedule a link failure input event."""
        raise ExperimentError("link failure injection needs the flow engine")

    def restore_link_at(self, time: float, a: str, b: str) -> None:
        """Schedule a link recovery input event."""
        raise ExperimentError("link recovery injection needs the flow engine")

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

    def sync_statistics(self, now: Optional[float] = None) -> None:
        """Bring lazily accrued counters up to ``now`` before a read."""

    def enable_entry_expiry(self, interval: float = 1.0) -> None:
        """Periodically expire timed-out flow entries, emitting
        FlowRemoved messages to the control plane."""
        self.sim.every(interval, self._expire_tick)

    def _expire_tick(self, sim: Simulator, t: float) -> None:
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
        out = {"engine": self.name}
        out.update(self._diagnostics())
        if self.profiler is not None:
            # Wall-clock content: only present when profiling was
            # explicitly enabled, so default reports stay deterministic.
            out["profile"] = self.profiler.snapshot()
        return out

    def _diagnostics(self) -> dict:
        """The engine-specific fields of :meth:`engine_stats`."""
        return self.stats
