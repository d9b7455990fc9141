"""Max-min fair bandwidth allocation (progressive filling).

Given a set of flows, each with a demand cap and the set of link
directions it crosses, compute the max-min fair rate vector: rates rise
together until a link saturates or a flow hits its demand; saturated
flows freeze; repeat.  This is the fluid model that lets Horse advance
in flow events instead of packet events.

The module has one kernel, :func:`_fill` (vectorized demand-capped
filling over a flow-link incidence list), and one way to reach it,
:class:`IncrementalSolver`: a stateful solver that keeps the *exact*
component partition across flow arrivals/departures/re-routes, each
component's kernel inputs and last reported rates resident as columns
(:class:`_Columns`, the only copy of either), re-runs the kernel only
on *dirty* components that are not provably *settled* (no link
saturates: every flow at its demand), and reports by difference: the
rates that moved.  Link loads are summed on read (:meth:`IncrementalSolver
.pull_loads`), once per component re-solved since the last read.

The tests hold the references (``tests/diff/reference.py``): a
from-scratch solve that partitions the live flows and runs the same
kernel on fresh columns of each part (bitwise equal, since components
are independent under max-min fairness and each sees the same rows in
the same order), the textbook scalar loop (a different algorithm), and
a max-min certificate that every flow-engine resolve in the suite
checks itself against (``tests/diff/certificate.py``).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from heapq import merge
from itertools import count
from operator import itemgetter
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

#: Rates below this (bps) are treated as zero when testing saturation.
EPSILON_BPS = 1e-6

#: Relative slack for saturation/demand tests.  Absolute 1e-6 bps alone
#: misbehaves at 100G-scale capacities, where float64 rounding after a
#: few subtractions already exceeds it; tolerances therefore scale with
#: the quantity compared: ``max(EPSILON_BPS, RELATIVE_EPSILON * x)``.
RELATIVE_EPSILON = 1e-9

#: Last-reported rate of a flow no resolve has reported yet.  NaN is
#: unequal to every rate, so such a flow always counts as moved.
_UNREPORTED = float("nan")

_INF = float("inf")
_FLOAT_MAX = sys.float_info.max


def saturation_eps(capacity: float) -> float:
    """Slack below which a link budget counts as exhausted."""
    return max(EPSILON_BPS, RELATIVE_EPSILON * capacity)


def demand_eps(demand: float) -> float:
    """Slack within which an allocation counts as demand-satisfied."""
    return max(EPSILON_BPS, RELATIVE_EPSILON * demand)


class FlowDemand:
    """Solver-facing view of one flow: an id, a demand, its links, and a
    fairness weight.

    ``links`` are hashable keys with a ``capacity`` mapping supplied to
    the solver, so the solver stays decoupled from topology objects.
    ``weight`` scales the flow's share under contention (weighted
    max-min: the "water level" rises per unit weight).

    ``pinned`` flows are granted their full demand *off the top* before
    progressive filling: their draw is subtracted from the link budgets
    and only the remainder is shared max-min among the elastic flows.
    This models inelastic traffic (e.g. packet-level CBR foreground in
    the hybrid engine) that does not back off under contention.
    """

    __slots__ = ("flow_id", "demand_bps", "links", "weight", "pinned")

    def __init__(
        self,
        flow_id: Hashable,
        demand_bps: float,
        links: Sequence[Hashable],
        weight: float = 1.0,
        pinned: bool = False,
    ) -> None:
        # Written so that NaN fails each test.  An infinite demand is an
        # uncapped flow: only a link can stop it, so it cannot be pinned.
        if not demand_bps >= 0:
            raise ValueError(f"demand must be >= 0, got {demand_bps}")
        if not 0 < weight < _INF:
            raise ValueError(f"weight must be > 0 and finite, got {weight}")
        if pinned and demand_bps == _INF:
            raise ValueError("a pinned flow needs a finite demand")
        self.flow_id = flow_id
        self.demand_bps = float(demand_bps)
        self.weight = float(weight)
        self.pinned = bool(pinned)
        # A flood-replicated flow may cross the same direction once only;
        # de-duplicate while preserving order for determinism.
        self.links = tuple(dict.fromkeys(links))

    def is_free(self) -> bool:
        """True when the flow's rate is :meth:`free_rate`, not the
        kernel's: it crosses no link, or its demand is effectively zero."""
        return not self.links or self.demand_bps <= EPSILON_BPS

    def free_rate(self) -> float:
        """A free flow's rate: its demand, except that a flow crossing
        no live link carries nothing, whatever its demand."""
        return self.demand_bps if self.links else 0.0

    def same_inputs(self, other: "FlowDemand") -> bool:
        """True when the solver inputs are identical (rates can't move)."""
        return (
            self.demand_bps == other.demand_bps
            and self.weight == other.weight
            and self.pinned == other.pinned
            and self.links == other.links
        )

    def __repr__(self) -> str:
        return (
            f"<FlowDemand {self.flow_id} demand={self.demand_bps:.3g} "
            f"links={len(self.links)}>"
        )


def _partition(flows: Sequence[FlowDemand]) -> List[List[FlowDemand]]:
    """Split constrained flows into link-sharing connected components.

    Flow order is preserved within each component and components are
    ordered by their first flow, so the result is a pure function of the
    input sequence.
    """
    parent: Dict[Hashable, Hashable] = {}

    def find(link: Hashable) -> Hashable:
        root = link
        while parent[root] != root:
            root = parent[root]
        while parent[link] != root:  # path compression
            parent[link], link = root, parent[link]
        return root

    for flow in flows:
        for link in flow.links:
            parent.setdefault(link, link)
        first = find(flow.links[0])
        for link in flow.links[1:]:
            parent[find(link)] = first
    groups: Dict[Hashable, List[FlowDemand]] = {}
    order: List[Hashable] = []
    for flow in flows:
        root = find(flow.links[0])
        bucket = groups.get(root)
        if bucket is None:
            bucket = groups[root] = []
            order.append(root)
        bucket.append(flow)
    return [groups[root] for root in order]


class _Columns:
    """One component's flows as columns: the :func:`_fill` inputs,
    and the rate last reported for each flow.

    Rows follow the component's flow order; links are numbered locally.
    The numbering does not reach the result (``bincount`` accumulates
    each link's pairs in row order and the water level is a ``min``
    over links), the row order does; a link whose last row left keeps
    its number and simply carries no weight, until a :meth:`select`
    renumbers.  This is the only place :class:`IncrementalSolver` keeps
    a component's inputs and rates: a flow joining at the end is an
    :meth:`append`, one leaving a :meth:`delete`, and rows move between
    and within components (merge, split, a re-routed flow returning to
    its place in the order) by :meth:`select`.  ``rate`` is not a kernel
    input: it holds the rate last reported for each row.
    """

    __slots__ = ("rows", "pairs", "demand", "weight", "pinned", "rate",
                 "counts", "flat", "link_ids", "links", "link_terms", "link_epoch")

    def __init__(self, rows: int = 0, pairs: int = 0) -> None:
        """Empty columns with room for ``rows`` flows crossing ``pairs``
        links between them before growing."""
        size = max(8, 2 * rows)
        self.rows = 0  # flows held
        self.pairs = 0  # (flow, link) incidences held
        self.demand = np.zeros(size)
        self.weight = np.zeros(size)
        self.pinned = np.zeros(size, dtype=bool)
        self.rate = np.zeros(size)
        #: Links crossed per row; ``flat`` holds their local ids, row by row.
        self.counts = np.zeros(size, dtype=np.intp)
        self.flat = np.zeros(max(4 * size, 2 * pairs), dtype=np.intp)
        self.link_ids: Dict[Hashable, int] = {}
        self.links: List[Hashable] = []
        #: What a solve derives from the link capacities
        #: (:func:`_link_terms`), kept from one solve to the next: until
        #: a link is numbered or the capacities' epoch moves.
        self.link_terms: Optional[tuple] = None
        self.link_epoch = 0

    def _grow(self, *names: str) -> None:
        for name in names:
            column = getattr(self, name)
            setattr(self, name, np.concatenate((column, np.zeros_like(column))))

    def append(self, flow: FlowDemand, rate: float = _UNREPORTED) -> None:
        row, pair = self.rows, self.pairs
        if row == self.demand.size:
            self._grow("demand", "weight", "pinned", "rate", "counts")
        while pair + len(flow.links) > self.flat.size:
            self._grow("flat")
        self.set_row(row, flow)
        self.rate[row] = rate
        self.counts[row] = len(flow.links)
        link_ids, flat = self.link_ids, self.flat
        for link in flow.links:
            local = link_ids.get(link)
            if local is None:
                local = link_ids[link] = len(self.links)
                self.links.append(link)
            flat[pair] = local
            pair += 1
        self.rows = row + 1
        self.pairs = pair

    def set_row(self, row: int, flow: FlowDemand) -> None:
        """(Re)write a row's scalars; its links are unchanged."""
        self.demand[row] = flow.demand_bps
        self.weight[row] = flow.weight
        self.pinned[row] = flow.pinned

    def delete(self, row: int) -> None:
        rows, pairs, counts, flat = self.rows, self.pairs, self.counts, self.flat
        start = int(counts[:row].sum())
        width = int(counts[row])
        for column in (self.demand, self.weight, self.pinned, self.rate, counts):
            column[row:rows - 1] = column[row + 1:rows]
        flat[start:pairs - width] = flat[start + width:pairs]
        self.rows = rows - 1
        self.pairs = pairs - width

    def select(self, order: Sequence[int]) -> "_Columns":
        """New columns holding rows ``order`` of these, in that order,
        their links renumbered from zero (numbers no row uses go)."""
        order = np.asarray(order, dtype=np.intp)
        counts = self.counts[:self.rows]
        width = counts[order]
        ends = np.cumsum(width)
        pairs = int(width.sum())
        # Pair k of row r comes from pair k of the row it was.
        first = np.cumsum(counts) - counts
        source = np.repeat(first[order] - (ends - width), width) + np.arange(pairs)
        used, flat = np.unique(self.flat[source], return_inverse=True)
        out = _Columns(order.size, pairs)
        for name in ("demand", "weight", "pinned", "rate", "counts"):
            getattr(out, name)[:order.size] = getattr(self, name)[order]
        out.flat[:pairs] = flat
        out.links = [self.links[local] for local in used.tolist()]
        out.link_ids = {link: local for local, link in enumerate(out.links)}
        out.rows, out.pairs = order.size, pairs
        return out

    def fill(
        self, capacities: Mapping[Hashable, float], epoch: int = 0
    ) -> Tuple[np.ndarray, Optional[tuple]]:
        """:func:`_fill` on the rows.  ``epoch`` names the state of
        ``capacities``: terms derived under another epoch are stale."""
        links, rows = self.links, self.rows
        link_terms = self.link_terms
        if (link_terms is None or self.link_epoch != epoch
                or link_terms[0].size != len(links)):
            try:
                caps = np.fromiter(map(capacities.__getitem__, links), float, len(links))
            except (KeyError, IndexError):
                for link in links:  # name the first link without one
                    try:
                        capacities[link]
                    except (KeyError, IndexError):
                        raise KeyError(f"no capacity given for link {link!r}") from None
                raise
            link_terms = self.link_terms = _link_terms(caps)
            self.link_epoch = epoch
        pinned = self.pinned[:rows]
        return _fill(
            self.demand[:rows],
            self.weight[:rows],
            pinned if pinned.any() else None,
            np.repeat(np.arange(rows), self.counts[:rows]),
            self.flat[:self.pairs],
            *link_terms,
        )

    def loads(self) -> List[float]:
        """Each link's sum of the rates last reported for the rows
        crossing it, by link number.  ``bincount`` adds a link's pairs
        one at a time in row order: the additions, and the order, of a
        Python loop over the flows and their links, so the sums are the
        same bits."""
        rows = self.rows
        return np.bincount(
            self.flat[:self.pairs],
            weights=np.repeat(self.rate[:rows], self.counts[:rows]),
            minlength=len(self.links),
        ).tolist()


def _link_terms(link_capacity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """What a solve derives from the link capacities alone: them as
    floats, and each link's saturation slack - relative to the
    capacity, so float64 rounding on multi-gigabit links registers."""
    capacity = link_capacity.astype(float)
    return capacity, np.maximum(EPSILON_BPS, RELATIVE_EPSILON * capacity)


def _fill(
    demand: np.ndarray,
    weight: np.ndarray,
    pinned: Optional[np.ndarray],
    flow_of: np.ndarray,
    link_of: np.ndarray,
    capacity: np.ndarray,
    sat_eps: np.ndarray,
) -> Tuple[np.ndarray, Optional[tuple]]:
    """Progressive filling on prepared link terms: the rate of every
    row (``flow_of`` / ``link_of`` are the parallel arrays of its
    flow-link pairs; ``pinned`` rows take their demand off the top), and
    the first round's ``(weight sums, level)`` when it filled every row
    from nothing to exactly its demand (else None; see :class:`_Component`)."""
    num_flows, num_links = int(demand.size), int(capacity.size)
    # The allocation at which a flow counts as demand-satisfied.  The
    # slack is taken of a finite number, so that an uncapped (infinite)
    # demand is satisfied at inf - slack = inf, that is never: only a
    # saturated link freezes it.
    done_at = demand - np.maximum(
        EPSILON_BPS, RELATIVE_EPSILON * np.minimum(demand, _FLOAT_MAX)
    )
    pair_weight = weight[flow_of]
    has_link = np.zeros(num_flows, dtype=bool)
    has_link[flow_of] = True
    # Link-free (and zero-demand) flows are granted their demand outright.
    frozen = ~has_link | (demand <= EPSILON_BPS)
    avail = capacity.copy()
    if pinned is not None:
        # Free flows never draw budget even when marked pinned.
        pinned = pinned & ~frozen
        if pinned.any():
            avail -= np.bincount(
                link_of,
                weights=np.where(pinned[flow_of], demand[flow_of], 0.0),
                minlength=num_links,
            )
            np.maximum(avail, 0.0, out=avail)
            frozen |= pinned
    alloc = np.where(frozen, demand, 0.0)
    left = num_flows - np.count_nonzero(frozen)
    ratio = np.empty(num_links)
    # Each iteration either saturates a link or freezes every flow whose
    # remaining headroom is below the current fair increment (in bulk),
    # so iterations are bounded by links + demand "plateaus", not flows.
    for round_ in range(num_flows + num_links + 8):
        if not left:
            break
        weight_sums = np.bincount(
            link_of,
            weights=np.where(frozen[flow_of], 0.0, pair_weight),
            minlength=num_links,
        )
        used = weight_sums > 0
        # Per-unit-weight water-level rise (weighted max-min): the least
        # budget per unit weight over the links that carry any.
        ratio.fill(_INF)
        np.divide(avail, weight_sums, out=ratio, where=used)
        level = float(ratio.min())
        if level == _INF:
            # Remaining flows only cross saturated-and-released links?
            # They are unconstrained now: grant the rest of their demand.
            alloc[~frozen] = demand[~frozen]
            break
        level = max(level, 0.0)
        # Demand-capped filling: each flow rises by min(w*level, headroom).
        flow_inc = np.minimum(level * weight, demand - alloc)
        np.maximum(flow_inc, 0.0, out=flow_inc)
        flow_inc[frozen] = 0.0
        alloc += flow_inc
        # Freeze demand-satisfied flows; when that is every flow, the
        # budgets are not read again.
        frozen |= alloc >= done_at
        if np.count_nonzero(frozen) == num_flows:
            if not round_ and left == num_flows and not np.count_nonzero(alloc != demand):
                return alloc, (weight_sums, level)
            break
        # Freeze every flow on a saturated link.
        avail -= np.bincount(link_of, weights=flow_inc[flow_of], minlength=num_links)
        saturated = used & (avail <= sat_eps)
        frozen[flow_of[saturated[link_of]]] = True
        still = num_flows - np.count_nonzero(frozen)
        if still == left and level <= EPSILON_BPS:  # pragma: no cover - safety valve
            break
        left = still
    return alloc, None


class _Component:
    """One link-sharing component of the solver's live flows.

    ``flows`` (with ``seqs`` alongside) is kept in insertion-sequence
    order — the order the kernel must see — and ``columns`` holds the
    same flows row for row: their kernel inputs and the rate last
    reported for each.  ``routes`` counts the members per route (link
    tuple) and ``link_routes`` maps each link to the distinct routes
    crossing it: the component as a graph of links joined by routes.
    Both change only when a route gains its first member or loses its
    last — a twin arriving or leaving touches a count — and a link
    leaves the component with its last route.

    It is *settled* while ``level`` and ``bound``, kept from a kernel run
    that left every row at its demand, prove it would again (no kernel
    run; docs/fluid-model.md, "Settled components").
    """

    __slots__ = ("flows", "seqs", "columns", "link_routes", "routes", "may_split",
                 "dirty", "level", "bound", "arrivals")

    def __init__(self, columns: Optional[_Columns] = None) -> None:
        self.flows: List[FlowDemand] = []
        self.seqs: List[int] = []
        self.columns = _Columns() if columns is None else columns
        #: link -> the routes crossing it, as an insertion-ordered set.
        self.link_routes: Dict[Hashable, Dict[Tuple[Hashable, ...], None]] = {}
        self.routes: Dict[Tuple[Hashable, ...], int] = {}
        #: A route lost its last member and the links it joined are not
        #: known to be joined without it (:meth:`joined`), so the members
        #: may no longer be connected; re-partitioned (once) by the next
        #: resolve.
        self.may_split = False
        self.dirty = False
        self.settle(None)

    def settle(self, first: Optional[tuple]) -> None:
        """Keep a kernel run's first round (:func:`_fill`); None unsettles."""
        #: (weight, demand, link numbers) of each row appended since.
        self.arrivals: List[Tuple[float, float, List[int]]] = []
        self.level: Optional[float] = None if first is None else first[1]
        self.bound: List[float] = [] if first is None else first[0].tolist()

    def arrive(self, flow: FlowDemand) -> None:
        """Add the row just appended for ``flow`` to the bounds."""
        if self.level is None or flow.pinned:
            self.level = None
            return
        columns, bound = self.columns, self.bound
        bound += [0.0] * (len(columns.links) - len(bound))
        ids = [columns.link_ids[link] for link in flow.links]
        for local in ids:
            bound[local] += flow.weight
        self.arrivals.append((flow.weight, flow.demand_bps, ids))

    def settled(self, capacities: Mapping[Hashable, float], epoch: int) -> Optional[np.ndarray]:
        """The demands, when the bounds prove the kernel would return
        them (``L·w ≥ d`` on the arrivals, or on every row if the
        arrivals lowered ``L``); None when it has to run."""
        level, columns = self.level, self.columns
        if level is None or columns.link_epoch != epoch:
            return None
        rows, arrivals, links = columns.rows, self.arrivals, columns.links
        if arrivals:
            for _, _, ids in arrivals:
                for local in ids:
                    level = min(level, capacities[links[local]] / self.bound[local])
            self.arrivals = []
            if level < self.level:
                self.level = level
                if not (level * columns.weight[:rows] >= columns.demand[:rows]).all():
                    return None
            elif any(level * weight < demand for weight, demand, _ in arrivals):
                return None
        return columns.demand[:rows]

    def report(self, fresh: np.ndarray, moved: Dict[Hashable, float]) -> None:
        """Take the members' fresh rates (flow order): keep them and add
        those unequal to the last report to ``moved``."""
        columns = self.columns
        last = columns.rate[:columns.rows]
        rows = np.flatnonzero(fresh != last)
        if rows.size:
            flows = self.flows
            moved.update(
                zip([flows[row].flow_id for row in rows.tolist()], fresh[rows].tolist())
            )
            last[:] = fresh

    def loads(self, loads: Dict[Hashable, float]) -> None:
        """Add each live link's load (:meth:`_Columns.loads`) to
        ``loads``: the rows as they stand, so the bits of the last
        report while nothing mutated the component since."""
        columns = self.columns
        # The numbering outlives a link's last row (see _Columns); such a
        # link may belong to another component by now.
        live = self.link_routes
        for link, load in zip(columns.links, columns.loads()):
            if link in live:
                loads[link] = load

    def joined(self, links: Sequence[Hashable]) -> bool:
        """Whether ``links`` are still joined to one another by the
        routes of this component: breadth-first over ``link_routes``
        from the first link until the others are reached or the
        reachable routes run out.  A yes or a no: no iteration order
        can reach a rate."""
        link_routes = self.link_routes
        missing = set(links[1:])
        seen_links = {links[0]}
        seen_routes: Set[Tuple[Hashable, ...]] = set()
        frontier = [links[0]]
        while frontier:
            routes = []
            for link in frontier:
                for route in link_routes[link]:
                    if route not in seen_routes:
                        seen_routes.add(route)
                        missing.difference_update(route)
                        if not missing:
                            return True
                        routes.append(route)
            frontier = []
            for route in routes:
                frontier += [hop for hop in route if hop not in seen_links]
                seen_links.update(route)
        return False


class IncrementalSolver:
    """Stateful solver re-running the kernel only on dirty components.

    The solver owns an *exact* component store: every live constrained
    flow belongs to the :class:`_Component` that owns all of its links,
    and two flows share a component iff they are transitively
    link-sharing.  :meth:`upsert` appends to (and merges) components in
    O(links); :meth:`remove` marks its component for one re-partition
    only when the departed flow was the last on its route (with a twin,
    every pair of links the flow joined is still joined) and a probe
    from the route's surviving links finds them no longer joined
    (:meth:`_Component.joined`).  :meth:`resolve` runs the kernel on each component touched
    since the last resolve, alone and in insertion order, so its rates
    are bitwise those of a from-scratch solve (a settled one keeps its
    demands: :class:`_Component`); untouched components keep
    their cached — equally exact — rates.  Exactness is
    what makes that hold: solving two disconnected sets as one would
    change the arithmetic, not only the scope.

    :meth:`resolve` reports by difference: it returns the rates that
    moved — bitwise unequal to the rate last reported for the flow, or
    the flow's first.  A flow's last reported rate is held once: with
    its component, or in ``_free`` for a flow granted its demand
    outright; it follows the flow through re-routes, merges and splits,
    so "moved" never depends on how the store is laid out.

    Link loads are kept lazily: a resolve only records what it made
    stale - the components it re-solved and the links flows left - and
    :meth:`pull_loads` sums the record when a load is read.
    """

    def __init__(self) -> None:
        #: Live flows; dict order is insertion-sequence order.
        self._flows: Dict[Hashable, FlowDemand] = {}
        self._seq: Dict[Hashable, int] = {}
        self._next_seq = 0
        self._component_of: Dict[Hashable, _Component] = {}  # by link
        #: Free flows (see FlowDemand.is_free) -> rate last reported.
        self._free: Dict[Hashable, float] = {}
        self._dirty_free: Set[Hashable] = set()
        self._dirty: List[_Component] = []
        self._dirty_links: Set[Hashable] = set()
        #: Bumped by touch_link: capacities cached under an older epoch
        #: are re-read.
        self._capacity_epoch = 0
        #: Number of flows actually re-solved by the last resolve.
        self.last_scope = 0
        #: Loads not yet pulled: the live components re-solved since the
        #: last pull, each once, and the links flows left or capacities
        #: moved on by then.
        self._unpulled: Dict[_Component, None] = {}
        self._unpulled_links: Set[Hashable] = set()
        self.stats = {
            "resolves": 0,
            "component_solves": 0,
            "settled": 0,  # of those, answered by the bounds: no kernel run
            "flows_resolved": 0,
            "rates_moved": 0,
            "repartitions": 0,
        }
        #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
        #: None; emission sites check ``is not None``.
        self.trace_bus = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert(self, flow: FlowDemand) -> None:
        """Register a new/changed flow.  A no-op when the solver inputs
        are identical to the registered ones (rates cannot move)."""
        flow_id = flow.flow_id
        old = self._flows.get(flow_id)
        last = _UNREPORTED
        if old is None:
            seq = self._seq[flow_id] = self._next_seq
            self._next_seq += 1
        elif old.same_inputs(flow):
            return
        else:
            seq = self._seq[flow_id]
            if old.links == flow.links and not (old.is_free() or flow.is_free()):
                # Same route: membership and connectivity are untouched.
                component = self._component_of[flow.links[0]]
                row = bisect_left(component.seqs, seq)
                self._flows[flow_id] = component.flows[row] = flow
                component.columns.set_row(row, flow)
                component.settle(None)
                self._mark_dirty(component)
                return
            last = self._detach(old, seq)
        self._flows[flow_id] = flow
        if flow.is_free():
            self._free[flow_id] = last
            self._dirty_free.add(flow_id)
        else:
            self._attach(flow, seq, last)

    def remove(self, flow_id: Hashable) -> None:
        """Drop a departed flow; its old component is marked dirty."""
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._detach(flow, self._seq.pop(flow_id))

    def touch_link(self, link: Hashable) -> None:
        """Mark a link dirty (e.g. its capacity changed)."""
        self._dirty_links.add(link)
        # Any component's columns may number the link, live or not.
        self._capacity_epoch += 1
        component = self._component_of.get(link)
        if component is not None:
            self._mark_dirty(component)

    def _mark_dirty(self, component: _Component) -> None:
        if not component.dirty:
            component.dirty = True
            self._dirty.append(component)

    def _attach(self, flow: FlowDemand, seq: int, last: float) -> None:
        """Add a constrained flow, with the rate last reported for it,
        to the component owning its links, merging the components it
        bridges."""
        component_of = self._component_of
        links = flow.links
        component: Optional[_Component] = None
        for link in links:
            other = component_of.get(link)
            if other is not None and other is not component:
                component = other if component is None else self._merge(component, other)
        if component is None:
            component = _Component()
        columns = component.columns
        end = columns.rows
        row = bisect_left(component.seqs, seq)
        component.seqs.insert(row, seq)
        component.flows.insert(row, flow)
        columns.append(flow, last)
        if row != end:
            # A re-routed flow keeps its seq: back to its sorted place.
            component.columns = columns.select([*range(row), end, *range(row, end)])
            component.settle(None)
        else:
            component.arrive(flow)
        self._enroll(component, links)
        self._mark_dirty(component)

    def _enroll(self, component: _Component, links: Tuple[Hashable, ...]) -> None:
        """Count one member's route into its component; a route's first
        member also enters it on each of its links."""
        routes = component.routes
        count = routes.get(links)
        if count is not None:
            routes[links] = count + 1
            return
        routes[links] = 1
        link_routes = component.link_routes
        for link in links:
            crossing = link_routes.get(link)
            if crossing is None:
                link_routes[link] = {links: None}
                self._component_of[link] = component
            else:
                crossing[links] = None

    def _merge(self, a: _Component, b: _Component) -> _Component:
        """Fold the smaller component into the larger; returns it."""
        if len(a.flows) < len(b.flows):
            a, b = b, a
        columns = a.columns
        for flow, last in zip(b.flows, b.columns.rate[:b.columns.rows].tolist()):
            columns.append(flow, last)
        # b's rows sit after a's; ``order`` is where the seqs put them.
        a.seqs, a.flows, order = map(list, zip(*merge(
            zip(a.seqs, a.flows, count()),
            zip(b.seqs, b.flows, count(len(a.flows))),
            key=itemgetter(0),
        )))
        a.columns = columns.select(order)
        a.settle(None)
        # Two components share no link before the flow that bridges
        # them: the maps are disjoint and their union is the merged map.
        component_of = self._component_of
        for link in b.link_routes:
            component_of[link] = a
        a.link_routes.update(b.link_routes)
        a.routes.update(b.routes)
        a.may_split = a.may_split or b.may_split
        b.flows = []  # dead: skipped if still queued as dirty
        self._unpulled.pop(b, None)  # a is dirty: its next resolve records all
        return a

    def _detach(self, flow: FlowDemand, seq: int) -> float:
        """Take a flow out of the store; returns its last reported rate."""
        if flow.is_free():
            self._dirty_free.discard(flow.flow_id)
            return self._free.pop(flow.flow_id)
        links = flow.links
        self._dirty_links.update(links)
        component = self._component_of[links[0]]
        row = bisect_left(component.seqs, seq)
        del component.seqs[row]
        del component.flows[row]
        last = float(component.columns.rate[row])
        component.columns.delete(row)
        routes = component.routes
        if routes[links] > 1:
            # A twin stays: every pair of links the flow joined is still
            # joined, and nothing else is recorded per flow.
            routes[links] -= 1
        else:
            del routes[links]
            link_routes = component.link_routes
            surviving = []
            for link in links:
                crossing = link_routes[link]
                del crossing[links]
                if crossing:
                    surviving.append(link)
                else:
                    # Last route off the link: it leaves the component, or
                    # a later arrival on it would join flows it does not
                    # touch.
                    del link_routes[link]
                    del self._component_of[link]
            # Whatever else the component holds hung on the route by one
            # of its surviving links: the component is still whole iff
            # those are still joined to one another.
            if (
                not component.may_split
                and len(surviving) > 1
                and not component.joined(surviving)
            ):
                component.may_split = True
        if not component.flows:
            self._unpulled.pop(component, None)  # dead: its links are dirty
        self._mark_dirty(component)
        return last

    def _split(self, component: _Component) -> List[_Component]:
        """Re-partition a component that the departure of a route left
        disconnected (a flow that arrived since may have joined it up
        again); returns the true component(s)."""
        self.stats["repartitions"] += 1
        component.may_split = False
        parts = _partition(component.flows)
        if len(parts) == 1:
            return [component]
        self._unpulled.pop(component, None)  # the parts are resolved now
        row_of = {flow.flow_id: row for row, flow in enumerate(component.flows)}
        seqs = component.seqs
        out = []
        for flows in parts:
            rows = [row_of[flow.flow_id] for flow in flows]
            part = _Component(component.columns.select(rows))
            part.flows = flows
            part.seqs = [seqs[row] for row in rows]
            for flow in flows:
                self._enroll(part, flow.links)
            out.append(part)
        return out

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, capacities: Mapping[Hashable, float]) -> Dict[Hashable, float]:
        """Re-solve dirty components; returns flow_id -> rate for the
        flows whose rate moved (see the class docstring), publishes
        :attr:`last_scope` (flows re-solved, moved or not) and records
        the loads it made stale for :meth:`pull_loads`.  A capacity is
        read again only after :meth:`touch_link`: a component keeps the
        capacities of its links from one solve to the next.
        """
        self.stats["resolves"] += 1
        # Store upkeep: every dirty component becomes exact.
        components: List[_Component] = []
        for component in self._dirty:
            component.dirty = False
            if component.flows:
                components.extend(
                    self._split(component) if component.may_split else (component,)
                )
        flow_of = self._flows
        # Insertion order keeps the returned dict (and therefore the
        # order rates are applied in) independent of set hashing: free
        # flows first, then components oldest member first, as a
        # from-scratch partition orders them.  The order decides
        # reporting, never a value.
        free = sorted(self._dirty_free, key=self._seq.__getitem__)
        components.sort(key=lambda component: component.seqs[0])
        moved: Dict[Hashable, float] = {}
        last_free = self._free
        for flow_id in free:
            rate = flow_of[flow_id].free_rate()
            if rate != last_free[flow_id]:
                moved[flow_id] = last_free[flow_id] = rate
        scope = len(free)
        settled, epoch = 0, self._capacity_epoch
        unpulled = self._unpulled
        for component in components:
            scope += len(component.flows)
            if (fresh := component.settled(capacities, epoch)) is not None:
                settled += 1
            else:
                fresh, first = component.columns.fill(capacities, epoch)
                component.settle(first)
            component.report(fresh, moved)
            unpulled[component] = None
        self._unpulled_links |= self._dirty_links
        self._dirty = []
        self._dirty_free = set()
        self._dirty_links = set()
        self.last_scope = scope
        self.stats["component_solves"] += len(components)
        self.stats["settled"] += settled
        self.stats["flows_resolved"] += scope
        self.stats["rates_moved"] += len(moved)
        if self.trace_bus is not None:
            # Components not solved kept their cached rates — the
            # incremental solver's cache hits.
            live = len(self._components())
            self.trace_bus.emit(
                "solver.resolve",
                components_solved=len(components),
                components_settled=settled,
                components_cached=max(0, live - len(components)),
                flows=scope,
                moved=len(moved),
            )
        return moved

    def pull_loads(self) -> Dict[Hashable, float]:
        """The load of every link a resolve may have moved since the
        last pull: each recorded component's live links summed once
        (:meth:`_Component.loads`, the bits an eager sum at its last
        resolve gives), 0.0 on a recorded link no component owns.  A
        component mutated since its resolve stays recorded for the pull
        after its next one.  Each link appears once, so the order of the
        answer reaches no value."""
        loads = dict.fromkeys(self._unpulled_links.difference(self._component_of), 0.0)
        kept: Dict[_Component, None] = {}
        for component in self._unpulled:
            if component.dirty:
                kept[component] = None
            else:
                component.loads(loads)
        self._unpulled = kept
        self._unpulled_links = set()
        return loads

    # ------------------------------------------------------------------
    # Introspection / compatibility
    # ------------------------------------------------------------------
    def _components(self) -> List[_Component]:
        return list({id(c): c for c in self._component_of.values()}.values())

    @property
    def alloc(self) -> Dict[Hashable, float]:
        """The full cached allocation (flow_id -> rate): every live
        flow's last reported rate."""
        out = dict(self._free)
        for component in self._components():
            rates = component.columns.rate[:component.columns.rows].tolist()
            out.update(zip([flow.flow_id for flow in component.flows], rates))
        return {flow_id: rate for flow_id, rate in out.items() if rate == rate}

    def components(self) -> List[List[Hashable]]:
        """Member flow ids of every component, each in insertion order."""
        return [[flow.flow_id for flow in c.flows] for c in self._components()]
