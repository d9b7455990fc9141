"""Test-side oracles: the from-scratch solve, the textbook
progressive-filling loop, the flow engine's four reference paths, the
two-event output queue and the sorted-list pending-event set.

:func:`solve` and :func:`solve_arrays` are the from-scratch ways into
the product's kernel (``repro.flowsim.fairshare._fill``), moved here
from ``fairshare.py`` when ``IncrementalSolver`` became the product's
only way: ``solve`` partitions the flows into link-sharing components
and fills each on fresh columns, so it is bitwise what the incremental
solver answers; ``solve_arrays`` fills one incidence list as it is.
:func:`resolve_from_scratch` is the solver's former ``full`` resolve:
the rates of every live flow from ``solve``, reported through the
solver's own difference.

:func:`solve_scalar` is the scalar kernel ``repro.flowsim.fairshare``
shipped until the vectorised one became the only one, moved here
verbatim.  It freezes one demand level per iteration where the product
kernel caps demands in bulk, so the two round differently: on
heterogeneous demands they agree to a few ulp (1.3e-15 relative
measured over the benchmark workloads), not bitwise.  The differential
tests compare at ``rel=1e-9``.

:func:`solve_from_scratch` and :func:`without_route_cache` turn a built
flow engine into a reference run: every event re-solves every component
from scratch, or every flow walks the pipelines.  Neither is a mode of
the product; the differential suites and the E2 / E6b benchmarks pin
the production path bitwise against them.

:func:`eager_loads` makes a built flow engine write its link loads
after every resolve, where the product sums them when they are read
(``FlowLevelEngine._sync_loads``).

:func:`eager_apply` turns a built flow engine back into one that
applies a moved rate eagerly: every accrual is followed by a settle, so
the route's port, entry and group counters are paid at once, and every
projection moves the flow's completion event with
``Simulator.reschedule``, later as well as earlier.  The product keeps
a *due* time, moves a timer only earlier and settles route counters
when they are read, re-walked or retired;
``test_kernel_reschedule_differential.py`` pins it against this path.

:class:`TwoEventOutputQueue` is the drop-tail queue
``repro.pktsim.queues`` shipped until a packet hop became one kernel
event, moved here verbatim: each packet costs a transmission-end event
and then an arrival event, and a packet lost in flight is neither
delivered nor dropped.  ``test_queue_differential.py`` pins the one-event
queue against it on links that stay up.

:class:`SortedListEventQueue` is the insertion-sorted pending-event set
``repro.sim.queue`` shipped beside the heap, moved here: the E6
ablation's baseline and the kernel tests' second queue.  It never
compacts, so its ``live`` is its raw size.
"""

import bisect
import functools
import types
from collections import deque
from typing import (
    Callable, Deque, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
)

import numpy as np

from repro.flowsim.events import FlowCompletion
from repro.flowsim.fairshare import (
    FlowDemand,
    IncrementalSolver,
    _Columns,
    _fill,
    _link_terms,
    _partition,
    demand_eps,
    saturation_eps,
)
from repro.flowsim.flow import FlowState
from repro.net.link import LinkDirection
from repro.pktsim.packet import Packet
from repro.sim.event import Event
from repro.sim.kernel import Simulator
from repro.sim.queue import Entry


def solve(
    flows: Iterable[FlowDemand], capacities: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    """Max-min fair rates (flow_id -> bps) from scratch: free flows get
    ``free_rate`` (nothing without a link, else their near-zero
    demand), the rest are partitioned into link-sharing components and
    each is filled on fresh columns, its flows in order.  The
    incremental solver fills the same rows, so the bits agree.

    >>> a = FlowDemand("a", 10.0, ["l"])
    >>> b = FlowDemand("b", 10.0, ["l"])
    >>> solve([a, b], {"l": 10.0})
    {'a': 5.0, 'b': 5.0}
    """
    alloc: Dict[Hashable, float] = {}
    constrained: List[FlowDemand] = []
    for flow in flows:
        if flow.is_free():
            alloc[flow.flow_id] = flow.free_rate()
        else:
            constrained.append(flow)
    for component in _partition(constrained):
        columns = _Columns(len(component))
        for flow in component:
            columns.append(flow)
        rates = columns.fill(capacities)[0].tolist()
        alloc.update(zip([flow.flow_id for flow in component], rates))
    return alloc


def solve_arrays(
    demand: np.ndarray,
    link_capacity: np.ndarray,
    flow_of: np.ndarray,
    link_of: np.ndarray,
    weight: np.ndarray = None,
    pinned: np.ndarray = None,
) -> np.ndarray:
    """The kernel on one flow-link incidence list, unpartitioned: entry
    k of ``flow_of`` / ``link_of`` says flow ``flow_of[k]`` crosses link
    ``link_of[k]``.  Pinned flows (optional boolean mask) receive their
    demand outright; their draw leaves the link budgets (floored at
    zero) before filling starts.  Returns the rate per flow."""
    if demand.size == 0:
        return np.zeros(0)
    if weight is None:
        weight = np.ones(demand.size)
    return _fill(demand, weight, pinned, flow_of, link_of, *_link_terms(link_capacity))[0]


def solve_scalar(
    flows: Sequence[FlowDemand], capacities: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    """The loop over all flows as one component.  Max-min components
    are independent, so no partition is needed for the rates to be
    right; a from-scratch partition is one more thing the product code
    is checked against rather than trusted for."""
    return solve_component_scalar(list(flows), capacities)


def resolve_from_scratch(
    solver: IncrementalSolver, capacities: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    """``solver.resolve(capacities)`` with every rate from :func:`solve`
    over all live flows, store and resident columns unused for them:
    every component counts as re-solved and none settles.  The store
    upkeep (splits), the report by difference, the published state and
    the record of stale loads (every live component, and the links
    flows left) are the solver's own, so the answer, and every load
    pulled after it, must be bitwise the same."""
    solver.stats["resolves"] += 1
    for component in solver._dirty:
        component.dirty = False
        if component.flows and component.may_split:
            solver._split(component)
    flow_of = solver._flows
    scratch = solve(flow_of.values(), capacities)
    components = sorted(solver._components(), key=lambda component: component.seqs[0])
    moved: Dict[Hashable, float] = {}
    last_free = solver._free
    for flow_id in sorted(last_free, key=solver._seq.__getitem__):
        rate = flow_of[flow_id].free_rate()
        if rate != last_free[flow_id]:
            moved[flow_id] = last_free[flow_id] = rate
    scope = len(last_free)
    for component in components:
        scope += len(component.flows)
        component.settle(None)
        component.report(
            np.array([scratch[flow.flow_id] for flow in component.flows]), moved
        )
        solver._unpulled[component] = None
    solver._unpulled_links |= solver._dirty_links
    solver._dirty = []
    solver._dirty_free = set()
    solver._dirty_links = set()
    solver.last_scope = scope
    solver.stats["component_solves"] += len(components)
    solver.stats["flows_resolved"] += scope
    solver.stats["rates_moved"] += len(moved)
    if solver.trace_bus is not None:
        solver.trace_bus.emit(
            "solver.resolve",
            components_solved=len(components),
            components_settled=0,
            components_cached=0,
            flows=scope,
            moved=len(moved),
        )
    return moved


def solve_from_scratch(engine):
    """Make a built flow engine re-solve every component from scratch at
    every event (:func:`resolve_from_scratch`): fresh partition, fresh
    columns, the same kernel.  Returns ``engine``."""
    solver = engine._solver
    solver.resolve = functools.partial(resolve_from_scratch, solver)
    return engine


def without_route_cache(engine):
    """Make every route-cache lookup of a built flow engine miss, so each
    flow walks the pipelines itself.  Returns ``engine``."""
    engine._route_cache_lookup = lambda key: None
    return engine


def eager_loads(engine):
    """Make a built flow engine pull its link loads after every resolve,
    as it summed them before loads were pulled on read.  Returns
    ``engine``."""
    engine._recompute_indexed = types.MethodType(_eager_recompute_indexed, engine)
    return engine


def _eager_recompute_indexed(self, now):
    type(self)._recompute_indexed(self, now)
    self._sync_loads()


def eager_apply(engine):
    """Make a built flow engine settle route counters after every accrual
    and retime completion events on every projection.  Returns
    ``engine``."""
    engine._accrue_flow = types.MethodType(_eager_accrue_flow, engine)
    engine._schedule_completion = types.MethodType(_eager_schedule_completion, engine)
    return engine


class EagerCompletion(FlowCompletion):
    """A completion event that is always due when it fires: it hands
    the flow to ``on_completion``, which re-projects a flow with bytes
    left."""

    __slots__ = ()

    def fire(self, sim) -> None:
        self.engine.on_completion(self.flow)


def _eager_accrue_flow(self, flow, now):
    """Accrue a flow, then pay its route at once: a settle after every
    accrual."""
    type(self)._accrue_flow(self, flow, now)
    self._settle(flow)


def _eager_schedule_completion(self, flow):
    """(Re)project the completion event of a just-accrued volume flow:
    an existing projection is moved with ``Simulator.reschedule`` (an
    unchanged completion time schedules nothing at all)."""
    if flow.size_bytes is None or flow.state is not FlowState.ACTIVE:
        return
    when = flow.projected_completion(self.sim.now)
    if when is None:
        event = self._completions.pop(flow.flow_id, None)
        if event is not None:
            self.sim.cancel(event)
        return
    when = max(when, self.sim.now)
    existing = self._completions.get(flow.flow_id)
    if existing is not None and not existing.cancelled:
        self._completions[flow.flow_id] = self.sim.reschedule(existing, when)
        return
    event = EagerCompletion(when, self, flow)
    self._completions[flow.flow_id] = event
    self.sim.schedule(event)


def as_arrays(flows, capacities):
    """:func:`solve_arrays` inputs for ``flows`` over the sorted link keys."""
    names = sorted(capacities)
    link_index = {name: i for i, name in enumerate(names)}
    flow_of = [i for i, flow in enumerate(flows) for _ in flow.links]
    link_of = [link_index[link] for flow in flows for link in flow.links]
    return dict(
        demand=np.asarray([f.demand_bps for f in flows]),
        link_capacity=np.asarray([capacities[name] for name in names]),
        flow_of=np.asarray(flow_of, dtype=np.intp),
        link_of=np.asarray(link_of, dtype=np.intp),
        weight=np.asarray([f.weight for f in flows]),
        pinned=np.asarray([f.pinned for f in flows]),
    )


def solve_component_scalar(
    flows: Sequence[FlowDemand], capacities: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    """Weighted progressive filling over one component, one demand
    level or one saturated link per iteration.

    Deterministic: all floating-point accumulation orders follow the
    input flow order, so identical inputs give identical bits.
    """
    alloc: Dict[Hashable, float] = {}
    active: List[FlowDemand] = []
    pinned_flows: List[FlowDemand] = []
    for flow in flows:
        if flow.is_free():
            alloc[flow.flow_id] = flow.free_rate()
        elif flow.pinned:
            # Pinned flows take their demand off the top; the elastic
            # flows below share whatever budget remains.
            alloc[flow.flow_id] = flow.demand_bps
            pinned_flows.append(flow)
        else:
            alloc[flow.flow_id] = 0.0
            active.append(flow)
    if not active:
        return alloc

    available: Dict[Hashable, float] = {}
    sat_slack: Dict[Hashable, float] = {}
    members: Dict[Hashable, List[int]] = {}
    for index, flow in enumerate(active):
        for link in flow.links:
            if link not in available:
                try:
                    available[link] = float(capacities[link])
                except (KeyError, IndexError):
                    raise KeyError(f"no capacity given for link {link!r}") from None
                sat_slack[link] = saturation_eps(available[link])
                members[link] = []
            members[link].append(index)

    if pinned_flows:
        # Accumulate the pinned draw per link, then subtract once with a
        # floor at zero — the same accumulation order and arithmetic as
        # the vectorized kernel, keeping the two paths bitwise-identical.
        pinned_draw: Dict[Hashable, float] = {}
        for flow in pinned_flows:
            for link in flow.links:
                if link in available:
                    pinned_draw[link] = pinned_draw.get(link, 0.0) + flow.demand_bps
        for link, draw in pinned_draw.items():
            available[link] = max(0.0, available[link] - draw)

    frozen = [False] * len(active)
    remaining = len(active)
    # Weighted progressive filling: the "water level" rises per unit
    # weight; each iteration freezes at least one flow, so the loop runs
    # at most len(active) times.
    while remaining:
        # Largest per-unit-weight level rise that saturates a link or a
        # demand.  Member weights are summed in ascending flow order.
        level = float("inf")
        link_weight: Dict[Hashable, float] = {}
        for link, indices in members.items():
            weight_sum = 0.0
            for index in indices:
                if not frozen[index]:
                    weight_sum += active[index].weight
            if weight_sum > 0.0:
                link_weight[link] = weight_sum
                level = min(level, available[link] / weight_sum)
        for index, flow in enumerate(active):
            if not frozen[index]:
                level = min(
                    level,
                    (flow.demand_bps - alloc[flow.flow_id]) / flow.weight,
                )
        if level == float("inf"):  # pragma: no cover - defensive
            break
        level = max(level, 0.0)
        # Raise all unfrozen flows by weight x level; draw down budgets.
        if level > 0:
            for link, weight_sum in link_weight.items():
                available[link] -= level * weight_sum
            for index, flow in enumerate(active):
                if not frozen[index]:
                    alloc[flow.flow_id] += level * flow.weight
        # Freeze demand-satisfied flows and flows on saturated links.
        newly_frozen: List[int] = []
        for index, flow in enumerate(active):
            if frozen[index]:
                continue
            if alloc[flow.flow_id] >= flow.demand_bps - demand_eps(flow.demand_bps):
                newly_frozen.append(index)
                continue
            if any(available[link] <= sat_slack[link] for link in flow.links):
                newly_frozen.append(index)
        if not newly_frozen:  # pragma: no cover - numeric safety valve
            break
        for index in newly_frozen:
            frozen[index] = True
            remaining -= 1
    return alloc


class TwoEventOutputQueue:
    """A FIFO bound to one link direction.

    Parameters
    ----------
    capacity_packets:
        Maximum queued packets (the in-flight transmission excluded).
    on_arrival:
        Callback ``(packet, dst_port)`` invoked when a packet finishes
        propagating to the far end.
    on_drop:
        Callback ``(packet, direction)`` for tail drops.
    capacity_fn:
        Optional ``(direction) -> bps`` override of the transmit rate,
        sampled per packet.  The hybrid engine supplies the *residual*
        capacity (link rate minus flow-level background load) here; when
        None the direction's configured capacity is used.
    """

    __slots__ = (
        "sim",
        "direction",
        "capacity_packets",
        "on_arrival",
        "on_drop",
        "capacity_fn",
        "_queue",
        "_busy",
        "enqueued",
        "dropped",
        "transmitted_bytes",
        "busy_time",
        "_busy_since",
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
        self._queue: Deque[Packet] = deque()
        self._busy = False
        self.enqueued = 0
        self.dropped = 0
        self.transmitted_bytes = 0
        #: Total seconds the transmitter was busy (for utilization).
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    @property
    def depth(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False when tail-dropped."""
        if not self.direction.up:
            self._drop(packet)
            return False
        if len(self._queue) >= self.capacity_packets:
            self._drop(packet)
            return False
        self._queue.append(packet)
        self.enqueued += 1
        if not self._busy:
            self._start_next()
        return True

    def _drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.direction.src_port.tx_dropped += 1
        self.on_drop(packet, self.direction)

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            if self._busy_since is not None:
                self.busy_time += self.sim.now - self._busy_since
                self._busy_since = None
            return
        if not self._busy:
            self._busy = True
            self._busy_since = self.sim.now
        packet = self._queue.popleft()
        capacity_fn = self.capacity_fn
        rate = (
            self.direction.capacity_bps
            if capacity_fn is None
            else capacity_fn(self.direction)
        )
        tx_time = packet.size_bytes * 8.0 / rate
        # tx_time rides along with the callback: under a time-varying
        # residual capacity the rate sampled at completion would differ
        # from the one the transmission actually used.
        self.sim.call_in(tx_time, self._on_tx_done, packet, tx_time)

    def _on_tx_done(self, sim: Simulator, packet: Packet, tx_time: float) -> None:
        self.transmitted_bytes += packet.size_bytes
        src_port = self.direction.src_port
        dst_port = self.direction.dst_port
        src_port.tx_packets += 1
        src_port.tx_bytes += packet.size_bytes
        delay = self.direction.delay_s
        packet.accumulated_delay += delay + tx_time
        packet.hops += 1
        if self.direction.up:
            sim.call_in(delay, self._on_propagated, packet)
        # else: packet lost in flight (link failed mid-transmission)
        self._start_next()

    def _on_propagated(self, sim: Simulator, packet: Packet) -> None:
        dst_port = self.direction.dst_port
        dst_port.rx_packets += 1
        dst_port.rx_bytes += packet.size_bytes
        self.on_arrival(packet, dst_port)

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Fraction of [since, now] the transmitter was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        window = now - since
        return busy / window if window > 0 else 0.0


class SortedListEventQueue:
    """Insertion-sorted list queue (ablation baseline, O(n) insert)."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: List[Entry] = []

    def push(self, event: Event) -> None:
        bisect.insort(self._events, (event.time, event.priority, event.seq, event))

    def pop_entry(self) -> Entry:
        return self._events.pop(0)

    def pop(self) -> Event:
        return self.pop_entry()[3]

    def peek(self) -> Optional[Event]:
        return self._events[0][3] if self._events else None

    def __len__(self) -> int:
        return len(self._events)

    @property
    def live(self) -> int:
        return len(self._events)

    def note_cancel(self, event: Event) -> bool:
        """Never asks the kernel for a compaction."""
        return False

    def health(self) -> dict:
        return {}
