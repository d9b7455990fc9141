"""Differential tests: IncrementalSolver vs from-scratch :func:`solve`.

The incremental hot path is only safe as a default if, after *any*
sequence of upserts/removals/link touches, its allocations are bitwise
identical to a from-scratch solve over the live flow set.  These tests
drive randomized update sequences (hypothesis-shrinkable) over
topologies up to ~50 switches (~100 directed link keys) and assert
exact equality after every resolve.

Removal-heavy sequences matter most: a departure can disconnect its
component, and solving the disconnected parts as one merged set would
not be bitwise-identical to solving them separately, so the solver must
re-split before it solves.

The second half tests the index itself, not only its answers: a
hypothesis state machine drives every mutation in random order and
checks the component store against ``_partition``, the resident columns
against the member flows and the machine's own record of the reported
rates, the touched-link report, and a pickled copy of the solver; named
regressions pin the twin rule, the probe that follows it (chain, ring,
at most one surviving link), a bridge removal, the link trap and a
merge that carries a pending split.  The same machine on wide links
without pinned flows (``SettledIndexMachine``) keeps most components
*settled* - answered from bounds, without the kernel - and an
invariant checks those bounds; named tests pin an arrival one ulp past
the bound, departures under rounding weights, and the full resolve
that never settles.

The kernel itself is checked against the textbook loop in
``tests/diff/reference.py`` (a different algorithm, so to 1e-9 and not
bitwise) while one component grows a flow at a time through every
column-growth boundary.
"""

import pickle
from collections import Counter
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.flowsim import fairshare
from repro.flowsim.fairshare import FlowDemand, IncrementalSolver

from .reference import as_arrays, resolve_from_scratch, solve, solve_arrays, solve_scalar

#: ~50 switches' worth of directed link keys.
NUM_LINKS = 100

DEMAND_CHOICES = (0.0, 1e6, 8e6, 40e6, 100e6, 1e9, 40e9)
WEIGHT_CHOICES = (1.0, 1.0, 1.0, 0.5, 2.0, 4.0)


def _capacities(rng: random.Random) -> dict:
    return {
        link: rng.choice((10e6, 100e6, 1e9, 10e9, 100e9))
        for link in range(NUM_LINKS)
    }


def _random_flow(rng: random.Random, flow_id: int) -> FlowDemand:
    num_links = rng.randint(0, 6)
    links = rng.sample(range(NUM_LINKS), num_links)
    return FlowDemand(
        flow_id,
        rng.choice(DEMAND_CHOICES),
        links,
        weight=rng.choice(WEIGHT_CHOICES),
    )


def _reference(live: dict, capacities: dict) -> dict:
    return solve(list(live.values()), capacities)


def _check(solver: IncrementalSolver, live: dict, capacities: dict):
    solver.resolve(capacities)
    got = {fid: solver.alloc[fid] for fid in live}
    expected = _reference(live, capacities)
    assert got == expected  # bitwise, not approx


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=st.integers(min_value=5, max_value=120),
    resolve_every=st.integers(min_value=1, max_value=7),
)
def test_random_update_sequences_match_full_solve(seed, ops, resolve_every):
    rng = random.Random(seed)
    capacities = _capacities(rng)
    solver = IncrementalSolver()
    live: dict = {}
    next_id = 0
    for step in range(ops):
        action = rng.random()
        if action < 0.55 or not live:
            flow = _random_flow(rng, next_id)
            next_id += 1
            live[flow.flow_id] = flow
            solver.upsert(flow)
        elif action < 0.8:
            fid = rng.choice(list(live))
            del live[fid]
            solver.remove(fid)
        else:
            # Reroute/redemand: upsert under an existing id.
            fid = rng.choice(list(live))
            flow = _random_flow(rng, fid)
            live[fid] = flow
            solver.upsert(flow)
        if step % resolve_every == 0:
            _check(solver, live, capacities)
    _check(solver, live, capacities)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_removal_heavy_sequences_split_stale_merges(seed):
    """Build one big connected blob, then carve it apart with removals —
    the surviving flows decompose into several true components that the
    stale union-find still records as one.  Stays below the lazy-rebuild
    threshold so the over-merge is actually exercised."""
    rng = random.Random(seed)
    capacities = _capacities(rng)
    solver = IncrementalSolver()
    live: dict = {}
    # Bridge flows chain many links together into one component.
    for fid in range(60):
        links = rng.sample(range(NUM_LINKS), rng.randint(2, 4))
        flow = FlowDemand(fid, rng.choice(DEMAND_CHOICES[1:]), links,
                          weight=rng.choice(WEIGHT_CHOICES))
        live[fid] = flow
        solver.upsert(flow)
    _check(solver, live, capacities)
    # Remove roughly half — far below the rebuild threshold of 64 — so
    # the union-find keeps the stale merged component.
    for fid in rng.sample(range(60), 30):
        del live[fid]
        solver.remove(fid)
    _check(solver, live, capacities)
    # Touch every remaining flow so every stale root goes dirty.
    for fid, flow in list(live.items()):
        bumped = FlowDemand(fid, flow.demand_bps * 2, flow.links,
                            weight=flow.weight)
        live[fid] = bumped
        solver.upsert(bumped)
    _check(solver, live, capacities)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_link_touch_rescopes_correctly(seed):
    """Capacity changes via touch_link re-solve the affected component
    and still match a from-scratch solve under the new capacities."""
    rng = random.Random(seed)
    capacities = _capacities(rng)
    solver = IncrementalSolver()
    live: dict = {}
    for fid in range(40):
        flow = _random_flow(rng, fid)
        live[fid] = flow
        solver.upsert(flow)
    _check(solver, live, capacities)
    for _ in range(5):
        link = rng.randrange(NUM_LINKS)
        capacities[link] = rng.choice((10e6, 1e9, 100e9))
        solver.touch_link(link)
        _check(solver, live, capacities)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_resolve_scope_matches_transitive_closure(seed):
    """The flows a change re-solves are the brute-force transitive
    closure of the changed flows over the flow/link sharing graph."""
    rng = random.Random(seed)
    capacities = _capacities(rng)
    flows = [_random_flow(rng, fid) for fid in range(rng.randint(1, 30))]
    changed = set(
        rng.sample([f.flow_id for f in flows], rng.randint(1, len(flows)))
    )
    solver = IncrementalSolver()
    for flow in flows:
        solver.upsert(flow)
    solver.resolve(capacities)
    for flow in flows:
        if flow.flow_id in changed:
            solver.upsert(
                FlowDemand(flow.flow_id, flow.demand_bps, flow.links,
                           weight=flow.weight * 2)
            )
    solver.resolve(capacities)
    # Brute force: fixed-point closure over shared links.  A free flow
    # (no links, or no demand) loads nothing and couples to nothing.
    closure = set(changed)
    links: set = set()
    for flow in flows:
        if flow.flow_id in closure and not flow.is_free():
            links.update(flow.links)
    while True:
        grew = False
        for flow in flows:
            if flow.flow_id in closure or flow.is_free():
                continue
            if any(link in links for link in flow.links):
                closure.add(flow.flow_id)
                links.update(flow.links)
                grew = True
        if not grew:
            break
    assert solver.last_scope == len(closure)
    free = {flow.flow_id for flow in flows if flow.is_free()}
    resolved = {
        flow_id for ids in solver.components() if not changed.isdisjoint(ids)
        for flow_id in ids
    }
    assert resolved == closure - free


# ----------------------------------------------------------------------
# The kernel against the textbook loop
# ----------------------------------------------------------------------
def assert_matches_textbook(flows, capacities, got):
    """``got`` (flow_id -> rate) against the scalar loop, to 1e-9."""
    expected = solve_scalar(flows, capacities)
    assert got.keys() == expected.keys()
    for flow_id, rate in expected.items():
        assert got[flow_id] == pytest.approx(rate, rel=1e-9, abs=1e-9), flow_id


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_growing_component_matches_textbook_loop(seed):
    """One coupled component grown a flow at a time from 1 to 100
    members - across every ``_Columns._grow`` boundary, rows and pairs -
    with heterogeneous demands, weights and the odd pinned flow: at
    every size ``IncrementalSolver.resolve`` (resident columns),
    ``solve`` (fresh columns) and ``solve_arrays`` agree with the
    textbook loop."""
    rng = random.Random(seed)
    capacities = {link: rng.uniform(50.0, 5000.0) for link in range(8)}
    solver = IncrementalSolver()
    flows = []
    for size in range(1, 101):
        # Link 0 keeps the component one piece.
        links = [0] + rng.sample(range(1, 8), rng.randint(0, 3))
        flow = FlowDemand(
            size, rng.uniform(0.1, 400.0), links,
            weight=rng.choice((0.5, 1.0, 1.0, 2.0, 4.0)),
            pinned=rng.random() < 0.05,
        )
        flows.append(flow)
        solver.upsert(flow)
        solver.resolve(capacities)
        assert_matches_textbook(flows, capacities, solver.alloc)
        assert solve(flows, capacities) == solver.alloc  # same kernel: bitwise
        arrays = solve_arrays(**as_arrays(flows, capacities)).tolist()
        assert_matches_textbook(
            flows, capacities, dict(zip([f.flow_id for f in flows], arrays))
        )


# ----------------------------------------------------------------------
# The index itself: exact components, touched links, checkpoints
# ----------------------------------------------------------------------
def _resolve(solver: IncrementalSolver, capacities: dict, full: bool) -> dict:
    """A resolve of the product, or with ``full`` the from-scratch one."""
    if full:
        return resolve_from_scratch(solver, capacities)
    return solver.resolve(capacities)


def _components(solver: IncrementalSolver) -> set:
    return {frozenset(ids) for ids in solver.components()}


def _true_components(live: dict) -> set:
    constrained = [f for f in live.values() if not f.is_free()]
    return {
        frozenset(f.flow_id for f in part)
        for part in fairshare._partition(constrained)
    }


SMALL_LINKS = 12
#: Link neighbourhoods: most flows stay inside one, so several
#: components coexist and the rarer cross-group flow is a real bridge.
_GROUPS = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), tuple(range(SMALL_LINKS)))
_link_lists = st.sampled_from(_GROUPS).flatmap(
    lambda group: st.lists(st.sampled_from(group), max_size=4, unique=True)
)
_demands = st.sampled_from(DEMAND_CHOICES)
_weights = st.sampled_from(WEIGHT_CHOICES)


class SolverIndexMachine(RuleBasedStateMachine):
    """Drives every mutation of the component store in random order
    and checks, after each resolve, the store against ``_partition``,
    the rates against ``solve``, the report by difference (moved rates,
    published link loads, touched links), and a pickled copy of the
    solver that receives the same remaining steps.  Every
    mutation may be followed at once by a resolve, so programs mix
    resolve-per-event (the engine's rhythm) with batched mutations.
    Between resolves, whatever the store did to its columns (merge,
    split, mid-order re-insert, growth), they still describe the member
    flows row for row and still hold the rates the machine was told."""

    def __init__(self):
        super().__init__()
        self.capacities = {
            link: (10e6, 100e6, 1e9, 10e9)[link % 4] for link in range(SMALL_LINKS)
        }
        self.solver = IncrementalSolver()
        self.copy = None  # unpickled twin, fed the same steps
        #: Fed the same steps, and pulls its loads after every resolve.
        self.eager = IncrementalSolver()
        self.loads = {}  # every load the solver's pulls wrote, latest first
        self.eager_loads = {}  # the same for the eager twin
        self.mutated = False  # a mutation came since the last resolve
        self.live = {}
        self.next_id = 0
        self.removed_links = set()
        self.reported = {}  # live flows' rates as of the last resolve

    def _each(self):
        return [s for s in (self.solver, self.copy, self.eager) if s is not None]

    def _note_departure(self, flow):
        # A free flow loads no link (its links may even belong to a
        # component that stays cached), so it reports none.
        if not flow.is_free():
            self.removed_links.update(flow.links)

    def _upsert(self, flow, then_resolve=False):
        old = self.live.get(flow.flow_id)
        if old is not None and not old.same_inputs(flow):
            self._note_departure(old)
        self.live[flow.flow_id] = flow
        self.mutated = True
        for solver in self._each():
            solver.upsert(flow)
        if then_resolve:
            self.resolve(full=False)

    def _pick(self, pick):
        return self.live[sorted(self.live)[pick % len(self.live)]]

    @rule(links=_link_lists, demand=_demands, weight=_weights,
          pinned=st.booleans(), then_resolve=st.booleans())
    def add_flow(self, links, demand, weight, pinned, then_resolve):
        self._upsert(
            FlowDemand(self.next_id, demand, links, weight, pinned), then_resolve
        )
        self.next_id += 1

    @rule(near=st.sampled_from(_GROUPS[0]),
          far=st.sampled_from(_GROUPS[1] + _GROUPS[2]),
          demand=_demands, then_resolve=st.booleans())
    def add_bridge(self, near, far, demand, then_resolve):
        self._upsert(FlowDemand(self.next_id, demand, [near, far]), then_resolve)
        self.next_id += 1

    @rule(seed=st.integers(0, 2**16), count=st.integers(30, 70),
          group=st.sampled_from(_GROUPS[:3]))
    def add_burst(self, seed, count, group):
        rng = random.Random(seed)
        for _ in range(count):
            links = rng.sample(group, rng.randint(1, 3))
            self._upsert(
                FlowDemand(self.next_id, rng.choice(DEMAND_CHOICES[1:]), links,
                           rng.choice(WEIGHT_CHOICES), rng.random() < 0.05)
            )
            self.next_id += 1

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6))
    def reupsert_same_inputs(self, pick):
        old = self._pick(pick)
        self._upsert(
            FlowDemand(old.flow_id, old.demand_bps, old.links, old.weight, old.pinned)
        )

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6), demand=_demands, weight=_weights,
          then_resolve=st.booleans())
    def change_demand(self, pick, demand, weight, then_resolve):
        old = self._pick(pick)
        self._upsert(
            FlowDemand(old.flow_id, demand, old.links, weight, old.pinned),
            then_resolve,
        )

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6), links=_link_lists, then_resolve=st.booleans())
    def change_links(self, pick, links, then_resolve):
        old = self._pick(pick)
        self._upsert(
            FlowDemand(old.flow_id, old.demand_bps, links, old.weight, old.pinned),
            then_resolve,
        )

    def _remove(self, flow_id):
        flow = self.live.pop(flow_id)
        self.reported.pop(flow_id, None)
        self._note_departure(flow)
        self.mutated = True
        for solver in self._each():
            solver.remove(flow_id)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6), then_resolve=st.booleans())
    def remove(self, pick, then_resolve):
        self._remove(self._pick(pick).flow_id)
        if then_resolve:
            self.resolve(full=False)

    # The three store operations that move rows of columns already
    # held, forced rather than waited for.
    def _two_components(self):
        parts = sorted(self.solver.components(), key=lambda ids: ids[0])
        return parts[:2] if len(parts) >= 2 else None

    @precondition(lambda self: self._two_components())
    @rule(demand=_demands, cut=st.booleans(), then_resolve=st.booleans())
    def bridge_two_components(self, demand, cut, then_resolve):
        """Merge two components that hold reported rates; with ``cut``,
        take the bridge out again: a split that is real."""
        self.resolve(full=False)
        first, second = self._two_components()
        bridge = FlowDemand(
            self.next_id, demand or 1e6,
            [self.live[first[0]].links[0], self.live[second[-1]].links[-1]],
        )
        self.next_id += 1
        self._upsert(bridge, then_resolve)
        merged = [ids for ids in self.solver.components() if bridge.flow_id in ids]
        assert sorted(merged[0]) == sorted(first + second + [bridge.flow_id])
        if cut:
            repartitions = self.solver.stats["repartitions"]
            self._remove(bridge.flow_id)
            self.resolve(full=False)
            assert self.solver.stats["repartitions"] == repartitions + 1
            assert {tuple(first), tuple(second)} <= {
                tuple(ids) for ids in self.solver.components()
            }

    @precondition(lambda self: any(len(ids) > 1 for ids in self.solver.components()))
    @rule(pick=st.integers(0, 10**6), then_resolve=st.booleans())
    def reroute_oldest_member(self, pick, then_resolve):
        """A re-routed flow keeps its place in the insertion order:
        the oldest member of a component leaves its row and comes back
        (possibly into a merged component) ahead of the younger
        members, not at the end."""
        parts = [ids for ids in self.solver.components() if len(ids) > 1]
        ids = sorted(parts, key=lambda ids: ids[0])[pick % len(parts)]
        old, other = self.live[ids[0]], self.live[ids[-1]]
        links = other.links if other.links != old.links else old.links + (
            (old.links[-1] + 1) % SMALL_LINKS,
        )
        self._upsert(
            FlowDemand(old.flow_id, old.demand_bps, links, old.weight, old.pinned),
            then_resolve,
        )
        (home,) = [part for part in self.solver.components() if old.flow_id in part]
        assert home == sorted(home) and home[-1] != old.flow_id

    @invariant()
    def columns_describe_the_members(self):
        for solver in self._each():
            # The rate columns against the machine's own record.
            assert solver.alloc == self.reported
            for component in solver._components():
                columns, flows = component.columns, component.flows
                assert component.seqs == sorted(component.seqs)
                assert [solver._seq[f.flow_id] for f in flows] == component.seqs
                rows = columns.rows
                assert rows == len(flows)
                assert columns.demand[:rows].tolist() == [f.demand_bps for f in flows]
                assert columns.weight[:rows].tolist() == [f.weight for f in flows]
                assert columns.pinned[:rows].tolist() == [f.pinned for f in flows]
                flat = iter(columns.flat[:columns.pairs].tolist())
                assert [
                    tuple(columns.links[next(flat)] for _ in range(count))
                    for count in columns.counts[:rows].tolist()
                ] == [f.links for f in flows]
                assert next(flat, None) is None

    @invariant()
    def the_probe_is_never_optimistic(self):
        """Right after every mutation, resolved or not: the link ->
        routes map is the one the member flows spell out, and a
        component the probe left unmarked really is one component."""
        for solver in self._each():
            for component in solver._components():
                rebuilt = {}
                for flow in component.flows:
                    for link in flow.links:
                        rebuilt.setdefault(link, set()).add(flow.links)
                assert {
                    link: set(routes) for link, routes in component.link_routes.items()
                } == rebuilt
                assert component.routes == Counter(f.links for f in component.flows)
                assert all(solver._component_of[link] is component for link in rebuilt)
                if not component.may_split:
                    assert len(fairshare._partition(component.flows)) == 1

    @invariant()
    def settled_components_keep_their_proof(self):
        """A settled component with no arrival pending, under the
        capacities it settled with: ``L·w ≥ d`` on every row, its
        weight-sum bounds at or above the sums the kernel would form,
        and ``L`` at or below the kernel's first-round level - so the
        kernel would hand back the demands.  Departures since the
        settling solve included."""
        for solver in self._each():
            for component in solver._components():
                columns = component.columns
                if (component.level is None or component.arrivals
                        or columns.link_epoch != solver._capacity_epoch):
                    continue
                rows = columns.rows
                weight, demand = columns.weight[:rows], columns.demand[:rows]
                assert (component.level * weight >= demand).all()
                sums = np.bincount(
                    columns.flat[:columns.pairs],
                    weights=np.repeat(weight, columns.counts[:rows]),
                    minlength=len(columns.links),
                )
                assert (sums <= np.array(component.bound)).all()
                used = sums > 0
                caps = np.array([self.capacities[link] for link in columns.links])
                assert component.level <= (caps[used] / sums[used]).min()

    @rule(link=st.integers(0, SMALL_LINKS - 1),
          capacity=st.sampled_from((10e6, 1e9, 100e9)))
    def touch_link(self, link, capacity):
        self.capacities[link] = capacity
        self.mutated = True
        for solver in self._each():
            solver.touch_link(link)

    @rule(group=st.sampled_from(_GROUPS[:3]), capacity=st.sampled_from((100e9, 10e12)))
    def widen(self, group, capacity):
        """Lift a neighbourhood's links to 100G (lighter components
        settle) or 10T (every component inside settles): arrivals and
        departures are then answered from the bounds, until one does
        not fit."""
        for link in group:
            self.touch_link(link, capacity)

    @rule()
    def checkpoint(self):
        self.copy = pickle.loads(pickle.dumps(self.solver))

    @invariant()
    def the_record_holds_live_components_once(self):
        """Whatever the store did since (merge, split, a component
        emptied), the loads not yet pulled name live components only,
        each once."""
        for solver in self._each():
            live = {id(component) for component in solver._components()}
            recorded = [id(component) for component in solver._unpulled]
            assert set(recorded) <= live
            assert len(set(recorded)) == len(recorded)

    @rule(full=st.booleans())
    def resolve(self, full):
        solver, eager = self.solver, self.eager
        before = self.reported
        updates = _resolve(solver, self.capacities, full)
        alloc = self.reported = solver.alloc
        self.mutated = False
        # (d) the unpickled twin took the same steps: same bits, same order.
        if self.copy is not None:
            assert list(_resolve(self.copy, self.capacities, full).items()) == list(
                updates.items()
            )
            assert self.copy.alloc == alloc
        assert list(_resolve(eager, self.capacities, full).items()) == list(
            updates.items()
        )
        # (b) bitwise equal to a from-scratch solve of the live flows.
        assert alloc == solve(list(self.live.values()), self.capacities)
        assert len(solver._flows) == len(self.live)
        # (e) reported by difference: exactly the live flows whose rate
        # is new or bitwise different from the last resolve's - however
        # the flow was re-routed, merged or split since - each with its
        # new rate.
        assert updates == {
            flow_id: rate
            for flow_id, rate in alloc.items()
            if flow_id not in before or before[flow_id] != rate
        }
        # The eager twin pulls after every resolve, as the engine summed
        # loads before they were pulled on read.
        loads = eager.pull_loads()
        self.eager_loads.update(loads)
        # (f) every pulled load of a link a flow crosses is the sum, in
        # insertion order, of the rates of the constrained flows on the
        # link - the same bits; any other pulled link carries nothing.
        constrained = [f for f in self.live.values() if not f.is_free()]
        for link, load in loads.items():
            total = 0.0
            for flow in constrained:
                if link in flow.links:
                    total += alloc[flow.flow_id]
            assert load == total
        # (g) loads are pulled for whole components and nothing else
        # (a link number outliving its last row must not leak), and the
        # components pulled add up to the scope reported.
        published = [
            ids for ids in eager.components()
            if any(link in loads for link in self.live[ids[0]].links)
        ]
        owned = {link for ids in published for i in ids for link in self.live[i].links}
        assert {link for link in loads if link in eager._component_of} == owned
        free = len(self.live) - len(constrained)
        scope = sum(len(ids) for ids in published)
        assert scope <= eager.last_scope <= scope + free
        if full:
            assert eager.last_scope == len(self.live)
        # (c) every link whose load may have moved is pulled: those a
        # flow left, and all of a component in which a rate moved.
        moved = set(self.removed_links)
        for ids in eager.components():
            if not updates.keys().isdisjoint(ids):
                for flow_id in ids:
                    moved.update(self.live[flow_id].links)
        assert moved <= set(loads)
        self.removed_links = set()
        # (a) no stale merge, no missed merge.
        assert _components(solver) == _true_components(self.live)

    @rule()
    def pull(self):
        """Pull after any number of resolves, or between a mutation and
        its resolve: the record keeps what it cannot sum yet (a
        component mutated since its resolve).  Pulled with no mutation
        since the last resolve, the loads written add up to the eager
        twin's, bit for bit."""
        loads = self.solver.pull_loads()
        # (d) the unpickled twin pulls the same bits.
        if self.copy is not None:
            assert self.copy.pull_loads() == loads
        # Whenever it is pulled, a load is the one the eager twin pulled
        # after the last resolve - nothing mutated since is summed - or
        # 0.0 on a link that lost its last flow since.
        for link, load in loads.items():
            assert load == self.eager_loads[link] or (
                load == 0.0 and link not in self.solver._component_of
            )
        self.loads.update(loads)
        if not self.mutated:
            assert self.loads == self.eager_loads


_machine_settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSolverIndex = SolverIndexMachine.TestCase
TestSolverIndex.settings = _machine_settings


class SettledIndexMachine(SolverIndexMachine):
    """The same machine where most components settle: links of 1G,
    100G and 10T, and no pinned flow (one pinned row unsettles its
    component).  Arrivals that fit and arrivals that do not, departures,
    merges, splits and re-routes then meet settled components, and the
    machine's checks hold them to ``solve`` bit for bit."""

    def __init__(self):
        super().__init__()
        self.capacities = {
            link: (1e9, 100e9, 10e12)[link % 3] for link in range(SMALL_LINKS)
        }

    def _upsert(self, flow, then_resolve=False):
        super()._upsert(
            FlowDemand(flow.flow_id, flow.demand_bps, flow.links, flow.weight),
            then_resolve,
        )

    def _settled(self):
        return [c for c in self.solver._components() if c.level is not None]

    @precondition(lambda self: self._settled())
    @rule(pick=st.integers(0, 10**6), weight=_weights, ulps=st.sampled_from((-1, 0, 1)),
          then_resolve=st.booleans())
    def arrive_at_the_level(self, pick, weight, ulps, then_resolve):
        """A flow onto a settled component's links whose demand is its
        ``L·w`` give or take an ulp: the bounds prove it, or the kernel
        runs."""
        settled = self._settled()
        component = settled[pick % len(settled)]
        share = float(component.level * weight)
        demand = float(np.nextafter(share, ulps * np.inf)) if ulps else share
        self._upsert(
            FlowDemand(self.next_id, demand, component.flows[0].links, weight), then_resolve
        )
        self.next_id += 1


TestSettledIndex = SettledIndexMachine.TestCase
TestSettledIndex.settings = _machine_settings


def _solver_with(*flows):
    solver = IncrementalSolver()
    for flow in flows:
        solver.upsert(flow)
    return solver


def test_removal_with_twin_route_does_not_repartition():
    """A departed flow whose link tuple another member shares cannot
    have been a bridge: the component is re-solved, never re-split."""
    caps = {"a": 10.0, "b": 10.0, "c": 10.0}
    twin = FlowDemand(1, 8.0, ["a", "b"])
    solver = _solver_with(
        FlowDemand(0, 8.0, ["a", "b"]), twin, FlowDemand(2, 8.0, ["b", "c"])
    )
    solver.resolve(caps)
    solver.remove(0)
    with patch.object(fairshare, "_partition", side_effect=AssertionError):
        updates = solver.resolve(caps)
    assert solver.stats["repartitions"] == 0
    assert set(updates) == {1, 2}
    assert _components(solver) == {frozenset({1, 2})}
    assert solver.alloc == solve([twin, FlowDemand(2, 8.0, ["b", "c"])], caps)


def test_removal_of_bridge_flow_splits_and_resolves_both_halves():
    caps = {"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.0}
    left = [FlowDemand(0, 8.0, ["a"]), FlowDemand(1, 8.0, ["a", "b"])]
    right = [FlowDemand(3, 8.0, ["c", "d"]), FlowDemand(4, 8.0, ["d"])]
    bridge = FlowDemand(2, 8.0, ["b", "c"])
    solver = _solver_with(*left, bridge, *right)
    solver.resolve(caps)
    assert _components(solver) == {frozenset({0, 1, 2, 3, 4})}
    solver.remove(2)
    updates = solver.resolve(caps)
    assert solver.stats["repartitions"] == 1
    assert _components(solver) == {frozenset({0, 1}), frozenset({3, 4})}
    assert solver.last_scope == 4 and not updates  # both halves re-solved, no rate moved
    assert {"a", "b", "c", "d"} <= set(solver.pull_loads())
    assert solver.alloc == solve(left + right, caps)
    # The halves are independent now: touching one leaves the other cached.
    solver.upsert(FlowDemand(0, 4.0, ["a"]))
    assert set(solver.resolve(caps)) == {0, 1}


def test_chain_losing_its_middle_flow_is_probed_and_split():
    """a-b, b-c, c-d without b-c: the survivors of the departed route,
    b and c, are no longer joined.  The probe says so, the one
    re-partition runs and finds two parts."""
    caps = dict.fromkeys("abcd", 10.0)
    ends = [FlowDemand(0, 8.0, ["a", "b"]), FlowDemand(2, 8.0, ["c", "d"])]
    solver = _solver_with(ends[0], FlowDemand(1, 8.0, ["b", "c"]), ends[1])
    solver.resolve(caps)
    solver.remove(1)
    (component,) = solver._components()
    assert component.may_split
    solver.resolve(caps)
    assert solver.stats["repartitions"] == 1
    assert _components(solver) == {frozenset({0}), frozenset({2})}
    assert solver.alloc == solve(ends, caps)


def test_ring_losing_one_flow_is_probed_and_left_whole():
    """a-b, b-c, c-a without a-b: a and b are still joined the long way
    round, so nothing is marked and ``_partition`` never runs."""
    caps = {"a": 10.0, "b": 10.0, "c": 20.0}
    rest = [FlowDemand(1, 8.0, ["b", "c"]), FlowDemand(2, 8.0, ["c", "a"])]
    solver = _solver_with(FlowDemand(0, 8.0, ["a", "b"]), *rest)
    solver.resolve(caps)
    solver.remove(0)
    with patch.object(fairshare, "_partition", side_effect=AssertionError):
        updates = solver.resolve(caps)
    assert solver.stats["repartitions"] == 0
    assert set(updates) == {1, 2}
    assert _components(solver) == {frozenset({1, 2})}
    assert solver.alloc == solve(rest, caps)


@pytest.mark.parametrize("departing", (["a", "b"], ["a", "d"]))
def test_a_route_with_at_most_one_surviving_link_needs_no_probe(departing):
    """Whatever hung on the departed route hung on its surviving links:
    with one of them (``b``) or none there is nothing to ask."""
    caps = dict.fromkeys("abcd", 10.0)
    survivor = FlowDemand(1, 8.0, ["b", "c"])
    solver = _solver_with(FlowDemand(0, 8.0, departing), survivor)
    solver.resolve(caps)
    with patch.object(fairshare._Component, "joined", side_effect=AssertionError):
        solver.remove(0)
    with patch.object(fairshare, "_partition", side_effect=AssertionError):
        solver.resolve(caps)
    assert solver.stats["repartitions"] == 0
    assert _components(solver) == {frozenset({1})}
    assert solver.alloc == solve([survivor], caps)


def test_link_leaves_its_component_with_its_last_flow():
    """The trap: flow 0 is the last on link ``a``.  Once it is gone
    ``a`` must no longer belong to flow 1's component, or a later flow
    on ``a`` alone would join a component it shares nothing with."""
    caps = {"a": 10.0, "b": 10.0, "c": 10.0}
    survivor = FlowDemand(1, 8.0, ["b", "c"])
    solver = _solver_with(FlowDemand(0, 8.0, ["a", "b"]), survivor)
    solver.resolve(caps)
    solver.remove(0)
    solver.resolve(caps)  # one surviving link: nothing to probe, nothing marked
    assert solver.stats["repartitions"] == 0
    newcomer = FlowDemand(2, 30.0, ["a"])
    solver.upsert(newcomer)
    updates = solver.resolve(caps)
    assert set(updates) == {2}
    assert _components(solver) == {frozenset({1}), frozenset({2})}
    assert solver.alloc == solve([survivor, newcomer], caps)


def test_merge_carries_a_pending_split():
    """A component that lost a bridge and is then absorbed by a larger
    one before any resolve: the pending re-partition moves with it."""
    caps = {"a": 10.0, "c": 10.0, "d": 10.0}
    big = [FlowDemand(i, 8.0, ["a"]) for i in range(4)]
    small = [FlowDemand(4, 8.0, ["c"]), FlowDemand(6, 8.0, ["d"])]
    solver = _solver_with(*big, small[0], FlowDemand(5, 8.0, ["c", "d"]), small[1])
    solver.resolve(caps)
    solver.remove(5)  # {4} and {6} are disconnected now, not yet re-split
    joiner = FlowDemand(7, 8.0, ["a", "c"])
    solver.upsert(joiner)  # folds {4, 6} into the big component
    solver.resolve(caps)
    assert _components(solver) == {frozenset({0, 1, 2, 3, 4, 7}), frozenset({6})}
    assert solver.alloc == solve(big + small + [joiner], caps)


def test_wide_rows_survive_a_reorder():
    """Flows crossing more links than the columns allot per row by
    default: a mid-order re-insert and a split copy every pair."""
    caps = {link: 10.0 + link for link in range(40)}
    wide = [FlowDemand(i, 8.0 + i, list(range(12 * i, 12 * i + 12))) for i in range(3)]
    bridge = FlowDemand(3, 5.0, [0, 12, 24])
    solver = _solver_with(*wide, bridge)
    solver.resolve(caps)
    assert _components(solver) == {frozenset({0, 1, 2, 3})}
    rerouted = FlowDemand(0, 8.0, list(range(11, -1, -1)))
    solver.upsert(rerouted)  # back to row 0, ahead of three younger rows
    solver.resolve(caps)
    assert solver.alloc == solve([rerouted, wide[1], wide[2], bridge], caps)
    solver.remove(3)
    solver.resolve(caps)
    assert _components(solver) == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert solver.alloc == solve([rerouted, wide[1], wide[2]], caps)


def test_touched_capacity_reaches_a_link_number_no_flow_holds():
    """The trap behind the capacity epoch: a component's columns keep
    numbering a link after its last flow left, so no component owns the
    link when its capacity changes - and the number is reused, cached
    capacity and all, by the next flow to cross it."""
    caps = {"a": 10.0, "b": 10.0}
    keeper = FlowDemand(0, 8.0, ["b"])
    solver = _solver_with(keeper, FlowDemand(1, 8.0, ["a", "b"]))
    solver.resolve(caps)
    solver.remove(1)
    solver.resolve(caps)
    caps["a"] = 2.0
    solver.touch_link("a")
    back = FlowDemand(2, 8.0, ["a", "b"])
    solver.upsert(back)
    solver.resolve(caps)
    assert solver.alloc == solve([keeper, back], caps) == {0: 8.0, 2: 2.0}


# ----------------------------------------------------------------------
# Settled components: rates kept without a kernel run
# ----------------------------------------------------------------------
class _Bus:
    """A trace sink that keeps the ``solver.resolve`` records."""

    def __init__(self):
        self.resolves = []

    def emit(self, kind, **fields):
        if kind == "solver.resolve":
            self.resolves.append(fields)


@pytest.mark.parametrize("ulps", (0, 1))
@pytest.mark.parametrize(
    "first_links, caps, arrival_links",
    (
        (["a"], {"a": 10.0}, ["a"]),  # L falls to 10 / 1.7: every row is tested
        (["a", "b"], {"a": 10.0, "b": 100.0}, ["b"]),  # L holds: the arrival alone
    ),
)
def test_arrival_short_of_its_demand_by_an_ulp_runs_the_kernel(
    first_links, caps, arrival_links, ulps
):
    """A settled component takes an arrival of weight 0.7 whose
    demand is ``L·w`` itself (proved: no kernel run, the demand is the
    rate) or one ulp above it (not proved: the kernel runs and the
    arrival gets the partial rate ``L·w``).  Bitwise as ``solve`` both
    ways."""
    first = FlowDemand(0, 1.0, first_links)
    solver = _solver_with(first)
    solver.resolve(caps)
    (component,) = solver._components()
    assert component.level == 10.0 and solver.stats["settled"] == 0
    level = min(
        caps[link] / (1.0 + 0.7 if link in arrival_links else 1.0)
        for link in {*first_links, *arrival_links}
    )
    share = level * 0.7
    demand = share if not ulps else float(np.nextafter(share, np.inf))
    arrival = FlowDemand(1, demand, arrival_links, weight=0.7)
    solver.upsert(arrival)
    assert solver.resolve(caps) == {1: share}
    assert solver.alloc == solve([first, arrival], caps) == {0: 1.0, 1: share}
    assert solver.stats["settled"] == 1 - ulps


@pytest.mark.parametrize("seed", range(4))
def test_departures_from_a_settled_component_stay_bitwise(seed):
    """Weights 0.1 and 0.7 make each link's weight sum round, and every
    demand is exactly ``L·w``: the tightest a settled row can be.  Each
    departure, from anywhere in the order, is answered without the
    kernel, and the rates stay bitwise those of ``solve`` - which they
    could not if dropping a term could raise a rounded sum."""
    rng = random.Random(seed)
    caps = {"a": 1e9, "b": 3e9, "c": 7e9}
    # Every route crosses ``a``: one component to the last flow.
    routes = (("a",), ("a", "b"), ("a", "c"), ("a", "b", "c"))
    rows = [(rng.choice(routes), rng.choice((0.1, 0.7))) for _ in range(40)]
    sums = {}
    for links, weight in rows:
        for link in links:
            sums[link] = sums.get(link, 0.0) + weight
    level = min(caps[link] / total for link, total in sums.items())
    live = [
        FlowDemand(fid, level * weight, links, weight=weight)
        for fid, (links, weight) in enumerate(rows)
    ]
    solver = _solver_with(*live)
    solver.resolve(caps)
    assert solver._components()[0].level == level
    assert solver.alloc == {flow.flow_id: flow.demand_bps for flow in live}
    for step, gone in enumerate(rng.sample(range(40), 39), start=1):
        live = [flow for flow in live if flow.flow_id != gone]
        solver.remove(gone)
        solver.resolve(caps)
        assert solver.stats["settled"] == step
        assert solver.alloc == solve(live, caps)


def test_full_resolve_never_settles():
    """``resolve_from_scratch`` is the oracle: it never answers from the
    bounds, and it drops what an incremental resolve had settled."""
    caps = {"a": 1e9, "b": 1e9}
    solver = _solver_with(*(FlowDemand(fid, 1e6, ["a", "b"][: 1 + fid % 2]) for fid in range(6)))
    solver.trace_bus = bus = _Bus()
    solver.resolve(caps)
    solver.upsert(FlowDemand(6, 1e6, ["b"]))
    solver.resolve(caps)
    (component,) = solver._components()
    assert component.level is not None and solver.stats["settled"] == 1
    for step in range(7, 12):
        solver.upsert(FlowDemand(step, 1e6, ["a"]))
        solver.remove(step - 7)
        resolve_from_scratch(solver, caps)
        assert all(component.level is None for component in solver._components())
    assert solver.stats["settled"] == 1
    assert [record["components_settled"] for record in bus.resolves] == [0, 1, 0, 0, 0, 0, 0]
