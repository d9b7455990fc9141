"""The flow-level data-plane engine — Horse's core contribution.

Instead of moving packets, the engine advances a fluid model between
*flow events* (arrivals, completions, link failures, rule changes):

1. **Accrue** — charge a flow's current rate for the elapsed interval
   into flow and meter counters.  Accrual is *lazy per flow*: a flow is
   charged only when its rate is about to change, when it finishes, or
   when statistics are read ("traffic statistics and the state of the
   topology are updated after every event" — the poster's contract is
   preserved observationally while costing O(changed) per event instead
   of O(active)).  Port, entry and group counters are *settled* later
   still, when read, re-walked or retired.
2. **Apply** the event — route a new flow through the OpenFlow
   pipelines, retire a finished one, flip a link, or re-walk flows whose
   rules changed.
3. **Re-solve** max-min fair rates (vectorized progressive filling) and
   reproject completion times for flows whose rate moved; a timer moves
   only when its projection comes earlier.

Routing walks the real switch pipelines (tables, groups, meters), so
controller-installed rules — not simulator shortcuts — decide paths;
``ToController`` punts raise packet-ins on the attached control plane,
closing the control loop the poster's architecture shows.

Two hot-path accelerators keep per-event cost proportional to what the
event touched rather than to the whole network:

* **Incremental re-solving.**  The engine feeds flow/link updates
  into a persistent :class:`~repro.flowsim.fairshare
  .IncrementalSolver`, which keeps the exact link-sharing components
  and re-runs the max-min kernel only on components an event touched.
  ``tests/diff`` pins the rates bitwise against re-solving everything
  from scratch through the *same* kernel.
* **Route caching.**  Flows whose headers are equivalent under the
  installed rules (same projection onto every matched field) reuse a
  cached pipeline walk, valid while every pipeline it consulted keeps
  its version and the topology its ``link_generation``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.config import HorseConfig
from ..errors import TopologyError
from ..net.link import Link, LinkDirection
from ..net.node import Host, Switch
from ..net.topology import Topology
from ..openflow.headers import HeaderFields
from ..openflow.messages import PacketIn
from ..openflow.switch import OpenFlowPipeline
from ..sim.engine import Engine
from ..sim.kernel import RESCHEDULE_EPSILON, Simulator
from .events import FlowArrival, FlowCompletion, FlowEnd, RerouteSweep
from .fairshare import FlowDemand, IncrementalSolver
from .flow import Flow, FlowRoute, FlowState, Terminal

#: Rank used to keep the most meaningful terminal across flood branches.
_TERMINAL_RANK = {
    Terminal.DELIVERED: 5,
    Terminal.BLACKHOLED: 4,
    Terminal.METER_BLOCKED: 3,
    Terminal.NO_ROUTE: 2,
    Terminal.LOOPED: 1,
    Terminal.NO_MATCH: 0,
}

#: Rate changes smaller than this (bps) don't trigger re-accrual.
_RATE_EPS = 1e-6

#: Route-cache entries are dropped wholesale beyond this many classes.
_ROUTE_CACHE_MAX = 4096


class FlowLevelEngine(Engine):
    """Drives flows through OpenFlow pipelines on a shared kernel.

    Parameters
    ----------
    sim, topology, control, config:
        See :class:`~repro.sim.engine.Engine`.  The engine reads
        ``max_hops`` (per-branch hop guard against forwarding loops) and
        ``mean_packet_bytes`` (fluid-to-packet conversion factor for
        packet counters) from ``config``.  It checks neither:
        ``HorseConfig.validate`` has.
    """

    name = "flow"

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        control: Optional[object] = None,
        config: Optional[HorseConfig] = None,
    ) -> None:
        super().__init__(sim, topology, control, config)
        self.max_hops = self.config.max_hops
        self.mean_packet_bytes = self.config.mean_packet_bytes
        self.active: Dict[int, Flow] = {}
        self._completions: Dict[int, FlowCompletion] = {}
        self._solver = IncrementalSolver()
        # Routing cache: header-class key -> (route, pipeline version
        # deps, topology link generation).  The flows of a class share
        # the one route: nothing changes a route after its walk.
        self._route_cache: Dict[Tuple, Tuple[FlowRoute, Tuple, int]] = {}
        # Cache-key projection: which header fields the installed rules
        # reference, memoised on the global pipeline version sum.
        self._key_fields: Optional[Tuple[str, ...]] = None
        self._key_fields_version = -1
        # Pipelines consulted by the walk in progress: dpid -> version
        # at first lookup (used to build cache deps and to refuse
        # caching walks that raced a rule change).
        self._walk_dpids: Dict[int, int] = {}
        self._dirty_dpids: Set[int] = set()
        self._reroute_pending = False
        self._in_walk = False
        # Asynchronous packet-outs: (flow_id, dpid, in_port) -> ports.
        # Consumed once by the next walk, emulating the buffered packet a
        # real switch would release on PacketOut.
        self._packet_out_hints: Dict[Tuple[int, int, int], List[int]] = {}
        # Per flow: its last accrual instant, its paid watermark (see
        # _settle) and, until the next settle, the end of the last
        # interval that carried traffic.
        self._accrued: Dict[int, float] = {}
        self._paid: Dict[int, int] = {}
        self._carried: Dict[int, float] = {}
        # Link-direction registry: solver link keys index these.
        self._dir_index: Dict[LinkDirection, int] = {}
        self._dir_list: List[LinkDirection] = []
        self._dir_caps = np.zeros(64)
        # External demands (hybrid foreground coupling): opaque key ->
        # registered direction indices / last solved rate, plus the
        # per-direction share of ``allocated_bps`` owed to externals so
        # ``background_load`` can report engine-owned load alone.
        self._external_links: Dict[Hashable, Tuple[int, ...]] = {}
        self._external_rates: Dict[Hashable, float] = {}
        self._external_on_dir: Dict[int, float] = {}
        # Probe walks are observational: no packet-ins, no controller.
        self._probing = False
        # Telemetry (off by default; see repro.telemetry).  The bus is
        # held privately and exposed through the ``trace_bus`` property
        # so assignment also reaches the owned solver; route walks and
        # rate solves are its ``engine.route`` / ``engine.solve`` spans.
        self._trace_bus = None
        # Aggregate statistics.
        self.stats = dict.fromkeys((
            "arrivals", "delivered", "undelivered", "completed", "ended", "reroutes",
            "packet_ins", "rate_solves", "route_cache_hits", "route_cache_misses",
        ), 0)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def trace_bus(self):
        """Structured trace sink (or None); assignment propagates to the
        owned incremental solver so no caller has to reach inside."""
        return self._trace_bus

    @trace_bus.setter
    def trace_bus(self, bus) -> None:
        self._trace_bus = bus
        self._solver.trace_bus = bus

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        self.sim.schedule(FlowArrival(flow.start_time, self, flow))

    def stop_flow(self, flow: Flow) -> None:
        """Terminate a continuous flow immediately."""
        if flow.state is FlowState.ACTIVE or flow.state is FlowState.BLOCKED:
            self.on_end(flow)

    def notify_rules_changed(self, dpid: int) -> None:
        """Called by the control channel after southbound state changes.

        Coalesces into one re-route sweep at the current instant; flows
        mid-walk handle rule changes inline instead.
        """
        self._dirty_dpids.add(dpid)
        if self._in_walk or self._reroute_pending:
            return
        self._reroute_pending = True
        self.sim.schedule(RerouteSweep(self.sim.now, self))

    def apply_packet_out(self, message, ports: List[int]) -> None:
        """Called by the channel when an asynchronous packet-out arrives:
        record the forwarding hint and wake blocked flows."""
        if message.flow_id is None:
            return
        self._packet_out_hints[
            (message.flow_id, message.dpid, message.in_port)
        ] = list(ports)
        self.notify_rules_changed(message.dpid)

    def sync_statistics(self, now: Optional[float] = None) -> None:
        """Bring every counter and link load up to ``now`` (stats reads)."""
        t = self.sim.now if now is None else now
        for flow in self.active.values():
            self._accrue_flow(flow, t)
        for flow_id in list(self._carried):
            self._settle(self.active[flow_id])
        self._sync_loads()

    def _sync_loads(self) -> Dict[int, float]:
        """Write ``allocated_bps`` of every direction whose load the
        resolves since the last pull may have moved
        (:meth:`IncrementalSolver.pull_loads`); returns those loads by
        direction index.  Loads are summed on read: a resolve only
        records what it made stale."""
        loads = self._solver.pull_loads()
        dir_list = self._dir_list
        for index, load in loads.items():
            dir_list[index].allocated_bps = load
        return loads

    # ------------------------------------------------------------------
    # External demands (hybrid foreground coupling)
    # ------------------------------------------------------------------
    def set_external_demand(
        self,
        key: Hashable,
        demand_bps: float,
        directions: Iterable[LinkDirection],
        pinned: bool = False,
        weight: float = 1.0,
    ) -> None:
        """Register (or update) a demand that competes for bandwidth but
        is not a flow this engine moves — e.g. a packet-level foreground
        flow in the hybrid engine.  ``pinned`` demands are granted off
        the top before max-min filling (inelastic traffic); unpinned
        ones share fairly with engine flows.  The solved rate is
        readable via :meth:`external_rate` after :meth:`recompute_rates`.
        """
        demand = FlowDemand(
            key,
            demand_bps,
            [self._register_direction(d) for d in directions if d.up],
            weight=weight,
            pinned=pinned,
        )
        # The solver's own (de-duplicated) link tuple: a direction's
        # load counts a demand once, so must its external share.
        self._external_links[key] = demand.links
        self._solver.upsert(demand)

    def clear_external_demand(self, key: Hashable) -> None:
        """Drop a previously registered external demand."""
        if self._external_links.pop(key, None) is None:
            return
        self._external_rates.pop(key, None)
        self._solver.remove(key)

    def external_rate(self, key: Hashable) -> float:
        """Last solved rate for an external demand (bps; 0.0 unknown)."""
        return self._external_rates.get(key, 0.0)

    def recompute_rates(self) -> None:
        """Re-solve rates now (public hook: callers batching external-
        demand updates invoke this once afterwards)."""
        self._recompute()

    def background_load(self, direction: LinkDirection) -> float:
        """This engine's own allocated load on a direction (bps),
        excluding external-demand contributions — the residual-capacity
        input for hybrid packet queues."""
        index = self._dir_index.get(direction)
        if index is None:
            return 0.0
        self._sync_loads()
        load = direction.allocated_bps - self._external_on_dir.get(index, 0.0)
        return max(0.0, load)

    def probe_route(self, flow: Flow) -> FlowRoute:
        """Walk a flow through the current pipelines without side
        effects: no packet-ins are raised, no state is mutated.  Used by
        the hybrid engine to discover which links a packet-level
        foreground flow crosses."""
        self._probing = True
        try:
            return self._walk(flow)
        finally:
            self._probing = False

    @property
    def active_flows(self) -> List[Flow]:
        return list(self.active.values())

    @property
    def last_solve_scope(self) -> int:
        """Flows re-solved by the most recent rate recomputation."""
        return self._solver.last_scope

    def summary(self) -> dict:
        return {**super().summary(), "active": len(self.active)}

    def _diagnostics(self) -> dict:
        names = ("route_cache_hits", "route_cache_misses", "rate_solves", "reroutes",
                 "packet_ins")
        return {**{name: self.stats[name] for name in names},
                "solver": dict(self._solver.stats)}

    # ------------------------------------------------------------------
    # Accrual: lazy fluid statistics
    # ------------------------------------------------------------------
    def _accrue_flow(self, flow: Flow, now: float) -> None:
        """Charge a flow's traffic since its last accrual at the current
        rate into its own and its meters' counters; its route's port,
        entry and group counters are paid at the next :meth:`_settle`."""
        last = self._accrued.get(flow.flow_id)
        if last is None or now <= last:
            return
        dt = now - last
        self._accrued[flow.flow_id] = now
        route = flow.route
        if route is None:
            return
        rate = flow.rate_bps
        sent = rate * dt / 8.0
        if sent > 0:
            flow.bytes_sent += sent
            if route.delivered:
                flow.bytes_delivered += sent
            self._carried[flow.flow_id] = now
        if not flow.elastic and flow.demand_bps > rate:
            flow.bytes_dropped += (flow.demand_bps - rate) * dt / 8.0
        for dpid, meter_id in route.meter_ids:
            pipeline = self._pipeline_by_dpid(dpid)
            if pipeline is not None and meter_id in pipeline.meters:
                offered = flow.demand_bps if not flow.elastic else rate
                pipeline.meters.get(meter_id).account_fluid(offered, dt)

    def _settle(self, flow: Flow) -> None:
        """Pay the flow's route what it sent since the last settle: the
        floor of ``bytes_sent`` is its paid watermark P in bytes, and
        ``ceil(P / mean_packet_bytes)`` in packets.  Entries take the end
        of the last interval that carried traffic as ``last_used``."""
        last = self._carried.pop(flow.flow_id, 0.0)  # 0.0 moves no last_used
        before = self._paid.get(flow.flow_id, 0)
        paid = self._paid[flow.flow_id] = int(flow.bytes_sent)
        if paid == before and not last:
            return
        sent, mean = paid - before, self.mean_packet_bytes
        packets = math.ceil(paid / mean) - math.ceil(before / mean)
        route = flow.route
        for direction in route.directions:
            direction.src_port.tx_bytes += sent
            direction.src_port.tx_packets += packets
            direction.dst_port.rx_bytes += sent
            direction.dst_port.rx_packets += packets
        for entry in route.entries:
            entry.account(sent, packets, now=last)
        for group, index in route.group_hits:
            group.account(index, sent)

    def _pipeline_by_dpid(self, dpid: int) -> Optional[OpenFlowPipeline]:
        try:
            return self.topology.switch_by_dpid(dpid).pipeline
        except TopologyError:
            return None

    # ------------------------------------------------------------------
    # Event handlers (public: events.py and sim/faults.py's link-state
    # event drive the engine through these)
    # ------------------------------------------------------------------
    def on_arrival(self, flow: Flow) -> None:
        now = self.sim.now
        self.stats["arrivals"] += 1
        self._accrued[flow.flow_id] = now
        self._route(flow)
        if flow.duration_s is not None:
            self.sim.schedule(FlowEnd(now + flow.duration_s, self, flow))
        self._notify("arrival", flow)
        self._recompute()

    def on_completion(self, flow: Flow) -> None:
        if flow.state is not FlowState.ACTIVE or flow.size_bytes is None:
            return
        self._accrue_flow(flow, self.sim.now)
        if flow.remaining_bytes > 1e-3:
            # Rates changed since this event was scheduled; reschedule.
            self._schedule_completion(flow)
            return
        if flow.delivered:
            flow.bytes_delivered += flow.size_bytes - flow.bytes_sent
        flow.bytes_sent = float(flow.size_bytes)
        self._retire(flow, FlowState.COMPLETED)

    def on_end(self, flow: Flow) -> None:
        if flow.finished:
            return
        self._accrue_flow(flow, self.sim.now)
        self._retire(flow, FlowState.ENDED)

    def _retire(self, flow: Flow, state: FlowState) -> None:
        flow.state = state
        flow.end_time = self.sim.now
        self._settle(flow)
        self.active.pop(flow.flow_id, None)
        completion = self._completions.pop(flow.flow_id, None)
        if completion is not None and completion.queued:
            # Still pending (the flow ended before it): never fire it.
            self.sim.cancel(completion)
        self._accrued.pop(flow.flow_id, None)
        self._paid.pop(flow.flow_id, None)
        self._solver.remove(flow.flow_id)
        self.stats[state.value] += 1
        self._notify(state.value, flow)
        self._recompute()

    def on_link_state(self, a: str, b: str, up: bool) -> Link:
        # The base flips the link (every cached route goes stale) and
        # tells the controller about both switch endpoints.
        link = super().on_link_state(a, b, up)
        # Registered capacities can drift (e.g. a degraded link model);
        # refresh them and mark changed links dirty for the solver.
        for index, direction in enumerate(self._dir_list):
            capacity = direction.capacity_bps
            if self._dir_caps[index] != capacity:
                self._dir_caps[index] = capacity
                self._solver.touch_link(index)
        # Re-route every flow crossing the link (down) or every
        # non-delivered flow (up: a better path may exist now).
        affected: Set[int] = set()
        for flow in self.active.values():
            route = flow.route
            if route is None:
                continue
            if not up and any(d.link is link for d in route.directions):
                affected.add(flow.flow_id)
            elif up and not route.delivered:
                affected.add(flow.flow_id)
        self._reroute_flows(affected)
        self._recompute()
        return link

    def on_reroute_sweep(self) -> None:
        self._reroute_pending = False
        dirty = self._dirty_dpids
        self._dirty_dpids = set()
        affected: Set[int] = set()
        for flow in self.active.values():
            route = flow.route
            if route is None or flow.state is FlowState.BLOCKED:
                affected.add(flow.flow_id)
            elif not route.delivered:
                affected.add(flow.flow_id)
            elif any(hop[0] in dirty for hop in route.switch_hops):
                affected.add(flow.flow_id)
        if self._reroute_flows(affected):
            self._recompute()

    def _on_entries_expired(self) -> None:
        # Routes relying on expired rules must be recomputed.
        for flow in self.active.values():
            if flow.route is not None:
                self._dirty_dpids.update(h[0] for h in flow.route.switch_hops)
        self.notify_rules_changed(-1)

    # ------------------------------------------------------------------
    # Routing: walking the pipelines
    # ------------------------------------------------------------------
    def _route(self, flow: Flow) -> None:
        """(Re)walk a flow through the data plane and update its state."""
        bus = self._trace_bus
        if bus is None:
            self._route_inner(flow)
            return
        with bus.span("engine.route", flow=flow.flow_id):
            self._route_inner(flow)

    def _route_inner(self, flow: Flow) -> None:
        # Charge traffic at the old rate/route before it changes.
        self._accrue_flow(flow, self.sim.now)
        self._settle(flow)
        route: Optional[FlowRoute] = None
        cache_key: Optional[Tuple] = None
        if not self._flow_hinted(flow):
            cache_key = self._route_cache_key(flow)
            route = self._route_cache_lookup(cache_key)
        if route is None:
            packet_ins_before = self.stats["packet_ins"]
            route = self._walk(flow)
            if cache_key is not None:
                self._route_cache_store(cache_key, route, packet_ins_before)
        flow.route = route
        previously_counted = flow.state in (FlowState.ACTIVE, FlowState.BLOCKED)
        if route.delivered:
            flow.state = FlowState.ACTIVE
            if not previously_counted:
                self.stats["delivered"] += 1
            self._notify("delivered", flow)
        elif route.punted and not route.delivered:
            # Waiting for the control plane (asynchronous packet-in).
            flow.state = FlowState.BLOCKED
        else:
            # Traffic still leaves the source and burns links up to the
            # drop point, so the flow stays ACTIVE but undelivered.
            flow.state = FlowState.ACTIVE
            if not previously_counted:
                self.stats["undelivered"] += 1
            self._notify("undelivered", flow)
        self.active[flow.flow_id] = flow
        self._sync_solver(flow)

    def _sync_solver(self, flow: Flow) -> None:
        """Push a flow's (possibly changed) solver inputs — its
        meter-capped demand and the up directions of its route — into
        the persistent incremental index.  Blocked flows carry no
        traffic and leave the solver entirely."""
        if flow.state is FlowState.BLOCKED:
            self._solver.remove(flow.flow_id)
            flow.rate_bps = 0.0
            return
        self._solver.upsert(
            FlowDemand(
                flow.flow_id,
                self._effective_demand(flow),
                [
                    self._register_direction(direction)
                    for direction in flow.route.directions
                    if direction.up
                ],
                weight=flow.weight,
            )
        )

    # ------------------------------------------------------------------
    # Route cache: header-equivalence-class keyed pipeline walks
    # ------------------------------------------------------------------
    def _flow_hinted(self, flow: Flow) -> bool:
        """True when a pending packet-out hint targets this flow (the
        walk must run to consume the buffered packet)."""
        if not self._packet_out_hints:
            return False
        return any(key[0] == flow.flow_id for key in self._packet_out_hints)

    def _route_cache_key(self, flow: Flow) -> Tuple:
        """(src, dst, header projection) identifying flows the installed
        rules cannot distinguish.  Projects the headers onto the fields
        any installed match references; falls back to the full header
        tuple while SELECT/ALL groups exist (their bucket choice hashes
        every field)."""
        fields = self._match_referenced_fields()
        headers = flow.headers
        if fields is not None:
            headers = HeaderFields(
                **{name: getattr(headers, name) for name in fields}
            )
        return (flow.src, flow.dst, headers)

    def _match_referenced_fields(self) -> Optional[Tuple[str, ...]]:
        """Header fields referenced by any installed match (the union of
        the tables' own per-field counts), memoised on the global
        pipeline version sum; None means "use full headers" (a group's
        hash may consult any field)."""
        total = 0
        pipelines = []
        for switch in self.topology.switches:
            pipeline = switch.pipeline
            if pipeline is not None:
                pipelines.append(pipeline)
                total += pipeline.version
        if total == self._key_fields_version:
            return self._key_fields
        referenced: Set[str] = set()
        full_headers = False
        for pipeline in pipelines:
            if len(pipeline.groups):
                full_headers = True
                break
            for table in pipeline.tables:
                referenced.update(table.referenced_fields)
        self._key_fields_version = total
        self._key_fields = None if full_headers else tuple(sorted(referenced))
        return self._key_fields

    def _route_cache_lookup(self, key: Tuple) -> Optional[FlowRoute]:
        cache = self._route_cache
        entry = cache.get(key)
        if entry is not None:
            route, deps, generation = entry
            if generation == self.topology.link_generation and all(
                (pipeline := self._pipeline_by_dpid(dpid)) is not None
                and pipeline.version == version
                for dpid, version in deps
            ):
                self.stats["route_cache_hits"] += 1
                if self._trace_bus is not None:
                    self._trace_bus.emit("engine.route_cache", hit=True)
                return route
            del cache[key]
        self.stats["route_cache_misses"] += 1
        if self._trace_bus is not None:
            self._trace_bus.emit("engine.route_cache", hit=False)
        return None

    def _route_cache_store(
        self, key: Tuple, route: FlowRoute, packet_ins_before: int
    ) -> None:
        """Cache a completed walk unless it depended on transient state:
        a punt awaiting the controller, a packet-in raised mid-walk, or
        a rule set that changed underneath the walk."""
        if route.punted or self.stats["packet_ins"] != packet_ins_before:
            return
        walked = self._walk_dpids.items()
        for dpid, version in walked:
            pipeline = self._pipeline_by_dpid(dpid)
            if pipeline is None or pipeline.version != version:
                return
        cache = self._route_cache
        if len(cache) >= _ROUTE_CACHE_MAX:
            cache.clear()
        cache[key] = (route, tuple(walked), self.topology.link_generation)

    def _register_direction(self, direction: LinkDirection) -> int:
        """Index a link direction for the solver, recording capacity."""
        index = self._dir_index.get(direction)
        if index is None:
            index = len(self._dir_list)
            self._dir_index[direction] = index
            self._dir_list.append(direction)
            if index >= self._dir_caps.size:
                self._dir_caps = np.concatenate((self._dir_caps, np.zeros_like(self._dir_caps)))
            self._dir_caps[index] = direction.capacity_bps
        return index

    def _reroute_flows(self, flow_ids: Set[int]) -> Set[int]:
        """Re-walk the given flows; returns ids whose route changed."""
        changed: Set[int] = set()
        # Sorted: the re-walk order decides observer-event order and
        # route-cache population, which must not borrow set hashing.
        for flow_id in sorted(flow_ids):
            flow = self.active.get(flow_id)
            if flow is None:
                continue
            old_key = self._route_key(flow.route)
            self._route(flow)
            if self._route_key(flow.route) != old_key:
                flow.reroutes += 1
                self.stats["reroutes"] += 1
                changed.add(flow_id)
                self._notify("rerouted", flow)
        return changed

    @staticmethod
    def _route_key(route: Optional[FlowRoute]) -> Tuple:
        if route is None:
            return ()
        return (
            route.terminal,
            tuple(d.key for d in route.directions),
        )

    def _walk(self, flow: Flow) -> FlowRoute:
        """Push the flow's headers through pipelines from its source."""
        self._in_walk = True
        self._walk_dpids = {}
        try:
            return self._walk_inner(flow)
        finally:
            self._in_walk = False

    def _walk_inner(self, flow: Flow) -> FlowRoute:
        route = FlowRoute()
        src = self.topology.host(flow.src)
        uplink = src.uplink_port
        if not uplink.live:
            route.terminal = Terminal.NO_ROUTE
            return route
        first_dir = uplink.link.direction_from(uplink)
        peer = uplink.peer
        assert peer is not None
        route.directions.append(first_dir)
        # Branch queue: (node, in_port_number, headers, depth)
        queue = deque([(peer.node, peer.number, flow.headers, 0)])
        visited: Set[Tuple[str, int, HeaderFields]] = set()
        best = Terminal.NO_MATCH

        def consider(terminal: Terminal) -> None:
            nonlocal best
            if _TERMINAL_RANK[terminal] > _TERMINAL_RANK[best]:
                best = terminal

        while queue:
            node, in_port, headers, depth = queue.popleft()
            if isinstance(node, Host):
                if node.name == flow.dst:
                    consider(Terminal.DELIVERED)
                # Frames reaching other hosts are discarded silently.
                continue
            if not isinstance(node, Switch) or node.pipeline is None:
                consider(Terminal.NO_ROUTE)
                continue
            if depth >= self.max_hops:
                consider(Terminal.LOOPED)
                continue
            state_key = (node.name, in_port, headers)
            if state_key in visited:
                consider(Terminal.LOOPED)
                continue
            visited.add(state_key)
            self._walk_dpids.setdefault(node.dpid, node.pipeline.version)
            result = node.pipeline.process(headers, in_port)
            if result.to_controller:
                answer = self._resolve_punt(
                    node, in_port, headers, flow.flow_id, flow.size_bytes or 0, result
                )
                if answer is None:
                    route.punted = True
                else:
                    result = answer
            route.entries.extend(result.matched_entries)
            route.group_hits.extend(result.group_hits)
            for meter_id in result.meter_ids:
                route.meter_ids.append((node.dpid, meter_id))
            if result.dropped:
                consider(Terminal.BLACKHOLED)
                continue
            if result.miss:
                consider(Terminal.NO_MATCH)
                continue
            route.switch_hops.append((node.dpid, in_port, tuple(result.out_ports)))
            self._fan_out(node, result.outputs, depth, route, queue, consider)
        route.terminal = best
        return route

    def _fan_out(
        self,
        node: Switch,
        outputs: List[Tuple[int, HeaderFields]],
        depth: int,
        route: FlowRoute,
        queue,
        consider: Callable[[Terminal], None],
    ) -> None:
        forwarded = False
        for number, headers in outputs:
            port = node.ports.get(number)
            if port is None or not port.live:
                consider(Terminal.NO_ROUTE)
                continue
            direction = port.link.direction_from(port)
            if direction not in route.directions:
                route.directions.append(direction)
            peer = port.peer
            assert peer is not None
            queue.append((peer.node, peer.number, headers, depth + 1))
            forwarded = True
        if not forwarded and not outputs:
            consider(Terminal.NO_MATCH)

    def _packet_in(self, message: PacketIn) -> Optional[List[int]]:
        reply = None
        # Probe walks (see probe_route) must not reach the control plane
        # or perturb counters.
        if not self._probing:
            self.stats["packet_ins"] += 1
            if self.control is not None:
                reply = self.control.deliver_packet_in(message)
        if reply is None:
            # A packet-out that came back asynchronously for this flow.
            reply = self._packet_out_hints.pop(
                (message.flow_id, message.dpid, message.in_port), None
            )
        return reply

    # ------------------------------------------------------------------
    # Rate computation
    # ------------------------------------------------------------------
    def _effective_demand(self, flow: Flow) -> float:
        demand = flow.demand_bps
        route = flow.route
        if route is None:
            return 0.0
        for dpid, meter_id in route.meter_ids:
            pipeline = self._pipeline_by_dpid(dpid)
            if pipeline is not None and meter_id in pipeline.meters:
                demand = min(demand, pipeline.meters.get(meter_id).rate_bps)
        return demand

    def _recompute(self) -> None:
        """Re-solve max-min rates and reproject completions."""
        self.stats["rate_solves"] += 1
        bus = self._trace_bus
        if bus is None:
            self._recompute_indexed(self.sim.now)
            return
        with bus.span("engine.solve"):
            self._recompute_indexed(self.sim.now)

    def _recompute_indexed(self, now: float) -> None:
        """Re-solve through the persistent component index.

        The kernel re-runs only on components an event touched, and
        answers by difference: the rates that moved.  Only those are
        applied, so an event costs what it changes.  Link loads are not
        summed here but when read (:meth:`_sync_loads`), except that the
        externals' share needs them at once.
        """
        moved = self._solver.resolve(self._dir_caps)
        active = self.active
        external_rates = self._external_rates
        completions = self._completions
        for flow_id, rate in moved.items():
            flow = active.get(flow_id)
            if flow is None:
                external_rates[flow_id] = rate
                continue
            # Accrue at the old rate first.  Below _RATE_EPS the rate stays;
            # a sized flow (ACTIVE: blocked ones left the solver) gets a
            # projection if it has none.
            moving = abs(rate - flow.rate_bps) > _RATE_EPS
            if moving or (flow_id not in completions and flow.size_bytes is not None):
                self._accrue_flow(flow, now)
                if moving:
                    flow.rate_bps = rate
                self._schedule_completion(flow)
        # The externals' share of the directions whose load a pull
        # wrote, from scratch in registration (= solver insertion)
        # order.  An unmoved external is not in ``moved`` and keeps its
        # rate; a cleared one is in neither dict, but the directions it
        # left are pulled.
        external_on_dir = self._external_on_dir
        if external_on_dir or self._external_links:
            touched = self._sync_loads()
            for index in touched:
                external_on_dir.pop(index, None)
            for key, links in self._external_links.items():
                rate = external_rates[key]
                for index in links:
                    if index in touched:
                        external_on_dir[index] = external_on_dir.get(index, 0.0) + rate

    def _schedule_completion(self, flow: Flow) -> None:
        """(Re)project the completion of a just-accrued volume flow: its
        *due* time, kept when within ``RESCHEDULE_EPSILON``.  A queued
        timer moves only earlier, and then exactly; one left early
        re-arms at its due time when it fires (``FlowCompletion.fire``).
        """
        if flow.size_bytes is None or flow.state is not FlowState.ACTIVE:
            return
        now = self.sim.now
        when = flow.projected_completion(now)
        if when is None:
            event = self._completions.pop(flow.flow_id, None)
            if event is not None:
                self.sim.cancel(event)
            return
        when = max(when, now)
        event = self._completions.get(flow.flow_id)
        if event is None:
            event = self._completions[flow.flow_id] = FlowCompletion(when, self, flow)
            self.sim.schedule(event)
        elif not event.queued:
            # Fired at its due time (or its flow was blocked): re-arm.
            event.due = when
            self.sim.reschedule(event, when)
        elif abs(event.due - when) >= RESCHEDULE_EPSILON:
            event.due, event.due_seq = when, self.sim.reserve()
            if when <= event.time:  # a return to event.time is re-stamped too
                if event.time - when < RESCHEDULE_EPSILON:
                    self.sim.cancel(event)  # else reschedule keeps event.time
                self.sim.reschedule(event, when, seq=event.due_seq)

    def _notify(self, name: str, flow: Flow) -> None:
        """Report a lifecycle event ('arrival', 'delivered',
        'undelivered', 'completed', 'ended', 'rerouted') to the trace
        and the observers."""
        if self._trace_bus is not None:
            self._trace_bus.emit(
                f"flow.{name}",
                flow=flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                rate_bps=flow.rate_bps,
            )
        for observer in self.observers:
            observer(name, flow)
