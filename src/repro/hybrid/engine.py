"""The hybrid flow/packet co-simulation engine.

Couples a flow-level :class:`~repro.flowsim.engine.FlowLevelEngine`
(the *background*) with a packet-level
:class:`~repro.pktsim.engine.PacketLevelEngine` (the *foreground*) on
one kernel and clock.  A :class:`~repro.hybrid.selection.SelectionPolicy`
decides which submitted flows run at packet granularity; everything
else stays in the fluid model.

Coupling model
--------------
Two one-way couplings, resolved at a configurable sync cadence:

background -> foreground
    Every packet transmission samples the *residual* capacity of its
    link direction: the configured rate minus the fair-share load of
    background flows on that direction (floored at
    ``RESIDUAL_FLOOR`` of the configured rate so the foreground never
    fully stalls).  Foreground packets therefore serialize slower on
    links the background congests.

foreground -> background
    Each sync tick measures every foreground flow's achieved rate and
    feeds it into the fair-share solver as an external demand along the
    flow's current route.  Inelastic (CBR) foreground flows enter
    *pinned* — granted off the top before progressive filling — while
    elastic foreground flows compete at a demand slightly above their
    measured rate so they can probe for more.

The empty-foreground case schedules nothing extra: the sync tick is
created lazily when the first foreground flow is dispatched, so
``select="none"`` is event-for-event identical to pure flow-level
simulation (the differential harness asserts this bitwise).

All scheduled callbacks and the queue-level ``capacity_fn`` are bound
methods of this engine, keeping hybrid checkpoints picklable.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from ..core.config import HorseConfig
from ..flowsim.engine import FlowLevelEngine
from ..flowsim.flow import Flow, FlowState
from ..net.link import LinkDirection
from ..net.topology import Topology
from ..pktsim.engine import PacketLevelEngine
from ..sim.engine import Engine
from ..sim.event import CallbackEvent
from ..sim.kernel import Simulator
from .selection import SelectionPolicy

logger = logging.getLogger(__name__)

#: Fraction of a link's configured rate the foreground always keeps,
#: however much background load the solver reports.  Guards against a
#: zero transmit rate (infinite tx_time) on fully saturated links.
RESIDUAL_FLOOR = 0.01

#: Headroom multiplier applied to a measured elastic foreground rate
#: before it enters the solver: demanding slightly more than achieved
#: lets a queue-limited flow probe upward instead of locking in a
#: transient dip.
DEMAND_GROWTH = 1.25

#: Elastic foreground demands never fall below this fraction of the
#: flow's nominal demand, so an idle-measured flow keeps a foothold in
#: the fair-share computation.
DEMAND_FLOOR_FRACTION = 0.01


class HybridEngine(Engine):
    """Co-simulates selected flows at packet granularity inside
    flow-level background traffic.

    Parameters
    ----------
    sim, topology, control:
        See :class:`~repro.sim.engine.Engine`.
    config:
        The run's :class:`~repro.core.config.HorseConfig` (None means
        ``HorseConfig()``).  The engine reads ``hybrid.select`` (the
        foreground selection spec, see
        :class:`~repro.hybrid.selection.SelectionPolicy`) and
        ``hybrid.sync_interval_s`` (cadence of the coupling exchange)
        and hands the same object to both sub-engines.
    """

    name = "hybrid"

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        control: Optional[object] = None,
        config: Optional[HorseConfig] = None,
    ) -> None:
        super().__init__(sim, topology, control)
        config = config or HorseConfig()
        self.policy = SelectionPolicy(config.hybrid.select)
        self.sync_interval_s = config.hybrid.sync_interval_s
        self.background = FlowLevelEngine(sim, topology, control, config)
        self.foreground = PacketLevelEngine(
            sim, topology, control, config,
            capacity_fn=self._residual_capacity,
        )
        # Flow lifecycle events come from the fluid background (the
        # packet foreground reports through the flow objects).
        self.observers = self.background.observers
        # Foreground membership.  A Dict (not a set) so iteration order
        # is insertion order — DET003 forbids bare set iteration in
        # simulation scopes.
        self._fg: Dict[int, Flow] = {}
        # Flows buffered until a deferred (top-K) policy can rank the
        # full submitted set at run start.
        self._pending: List[Flow] = []
        # Demand threshold fixed by finalize() for deferred policies:
        # late-submitted flows join the foreground above it.  None until
        # finalized; +inf when top:0 selected nothing.
        self._threshold: Optional[float] = None
        self._finalized = False
        # flow_id -> (t, bytes_sent) at the last sync; presence marks a
        # flow currently coupled into the background solver.
        self._measured: Dict[int, Tuple[float, float]] = {}
        self._sync_scheduled = False
        # Persistent sync timer, re-armed via Simulator.reschedule after
        # each firing (one push per tick, no per-tick allocation).
        self._sync_event: Optional[CallbackEvent] = None
        self.stats = {
            "syncs": 0,
            "foreground_flows": 0,
            "background_flows": 0,
            "external_updates": 0,
        }

    # ------------------------------------------------------------------
    # Submission and classification
    # ------------------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        """Route a flow to the foreground or background engine."""
        if self.policy.deferred and not self._finalized:
            self._pending.append(flow)
        else:
            self._dispatch(flow, self._classify(flow))

    def finalize(self) -> None:
        """Classify deferred submissions; idempotent, called at run
        start (late submits then classify against the fixed threshold)."""
        if self._finalized:
            return
        self._finalized = True
        if not self.policy.deferred:
            return
        picked = self.policy.pick_top(self._pending)
        self._threshold = (
            min(f.demand_bps for f in picked) if picked else float("inf")
        )
        picked_ids = {f.flow_id for f in picked}
        pending, self._pending = self._pending, []
        for flow in pending:
            self._dispatch(flow, flow.flow_id in picked_ids)

    def _classify(self, flow: Flow) -> bool:
        if self.policy.deferred:
            # Post-finalize late submission: at or above the K-th
            # ranked demand means it would have been picked.
            return flow.demand_bps >= self._threshold
        return self.policy.matches(flow)

    def _dispatch(self, flow: Flow, is_foreground: bool) -> None:
        if is_foreground:
            self._fg[flow.flow_id] = flow
            self.stats["foreground_flows"] += 1
            self.foreground.submit(flow)
            self._ensure_sync()
        else:
            self.stats["background_flows"] += 1
            self.background.submit(flow)

    # ------------------------------------------------------------------
    # Coupling
    # ------------------------------------------------------------------
    def _residual_capacity(self, direction: LinkDirection) -> float:
        """Link rate minus flow-level background load, floored so the
        foreground always keeps RESIDUAL_FLOOR of the configured rate."""
        capacity = direction.capacity_bps
        residual = capacity - self.background.background_load(direction)
        floor = capacity * RESIDUAL_FLOOR
        return residual if residual > floor else floor

    def _ensure_sync(self) -> None:
        # Lazy: select="none" must schedule nothing so the background
        # engine's event sequence matches pure flowsim bitwise.
        if self._sync_scheduled:
            return
        self._sync_scheduled = True
        event = CallbackEvent(
            self.sim.now + self.sync_interval_s, self._sync_timer
        )
        event.daemon = True  # an idle sync loop must not keep run() alive
        self._sync_event = self.sim.schedule(event)

    def _sync_timer(self, sim: Simulator) -> None:
        """Recurring sync driver: run one tick, then re-arm the timer.

        Re-arming after the callback (not before) keeps the kernel
        sequence-number consumption identical to the periodic-event
        formulation this replaced, so event orderings are unchanged.
        """
        self._sync_tick(sim, sim.now)
        self._sync_event = sim.reschedule(
            self._sync_event, sim.now + self.sync_interval_s
        )

    def _sync_tick(self, sim: Simulator, t: float) -> None:
        self.stats["syncs"] += 1
        bus = self.foreground.trace_bus
        if bus is not None:
            with bus.span(
                "hybrid.sync", foreground=len(self._fg), coupled=len(self._measured)
            ):
                self._sync_once(t)
        else:
            self._sync_once(t)

    def _sync_once(self, now: float) -> None:
        """One coupling exchange: measure foreground rates, refresh the
        solver's external demands, recompute background fair shares."""
        updated = False
        for flow_id in sorted(self._fg):
            flow = self._fg[flow_id]
            if flow.finished:
                if flow_id in self._measured:
                    del self._measured[flow_id]
                    self.background.clear_external_demand(("fg", flow_id))
                    updated = True
                continue
            if flow.state == FlowState.PENDING:
                continue
            demand = self._measure_demand(flow, now)
            self._measured[flow_id] = (now, flow.bytes_sent)
            route = self.background.probe_route(flow)
            self.background.set_external_demand(
                ("fg", flow_id),
                demand,
                route.directions,
                pinned=not flow.elastic,
                weight=flow.weight,
            )
            self.stats["external_updates"] += 1
            updated = True
        if updated:
            self.background.recompute_rates()

    def _measure_demand(self, flow: Flow, now: float) -> float:
        """Solver-side demand for one active foreground flow."""
        if not flow.elastic:
            # CBR traffic injects at its nominal rate regardless of
            # congestion; pin exactly that.
            return flow.demand_bps
        last = self._measured.get(flow.flow_id)
        if last is None:
            # First sight: assume the nominal demand until measured.
            return flow.demand_bps
        t_last, bytes_last = last
        dt = now - t_last
        if dt <= 0.0:
            return flow.demand_bps
        achieved = (flow.bytes_sent - bytes_last) * 8.0 / dt
        demand = achieved * DEMAND_GROWTH
        floor = flow.demand_bps * DEMAND_FLOOR_FRACTION
        if demand < floor:
            demand = floor
        return demand if demand < flow.demand_bps else flow.demand_bps

    # ------------------------------------------------------------------
    # Control-plane protocol (fan-out to the owning sub-engine)
    # ------------------------------------------------------------------
    def notify_rules_changed(self, dpid: int) -> None:
        self.background.notify_rules_changed(dpid)

    def apply_packet_out(self, message, ports: List[int]) -> None:
        if message.flow_id in self._fg:
            self.foreground.apply_packet_out(message, ports)
        else:
            self.background.apply_packet_out(message, ports)

    def sync_statistics(self, now: Optional[float] = None) -> None:
        self.background.sync_statistics(now)

    def enable_entry_expiry(self, interval: float = 1.0) -> None:
        self.background.enable_entry_expiry(interval)

    def fail_link_at(self, time: float, a: str, b: str) -> None:
        self.background.fail_link_at(time, a, b)

    def restore_link_at(self, time: float, a: str, b: str) -> None:
        self.background.restore_link_at(time, a, b)

    # ------------------------------------------------------------------
    # Telemetry plumbing (fan out to both sub-engines)
    # ------------------------------------------------------------------
    @property
    def trace_bus(self):
        return self.foreground.trace_bus

    @trace_bus.setter
    def trace_bus(self, bus) -> None:
        self.foreground.trace_bus = bus
        self.background.trace_bus = bus

    @property
    def profiler(self):
        return self.foreground.profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self.foreground.profiler = profiler
        self.background.profiler = profiler

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Merged outcome counters across both traffic classes."""
        bg = self.background.summary()
        fg = self.foreground.summary()
        out = dict(bg)
        out["total_flows"] = len(self.flows)
        for key in ("bytes_sent", "bytes_delivered", "bytes_dropped"):
            out[key] = bg[key] + fg[key]
        out["foreground"] = fg
        out["syncs"] = self.stats["syncs"]
        out["foreground_flows"] = self.stats["foreground_flows"]
        out["background_flows"] = self.stats["background_flows"]
        return out

    def _diagnostics(self) -> dict:
        return {
            "select": self.policy.spec,
            "sync_interval_s": self.sync_interval_s,
            **self.stats,
            "foreground_engine": self.foreground.engine_stats(),
            "background_engine": self.background.engine_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HybridEngine select={self.policy.spec!r} "
            f"fg={len(self._fg)} flows={len(self.flows)}>"
        )
