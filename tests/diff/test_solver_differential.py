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
checks the component store against ``_partition``, the touched-link
report, and a pickled copy of the solver; named regressions pin the
twin rule, a bridge removal, the link-refcount trap and a merge that
carries a pending split.
"""

import pickle
import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.flowsim import fairshare
from repro.flowsim.fairshare import (
    FlowDemand,
    IncrementalSolver,
    affected_component,
    solve,
)

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
def test_affected_component_matches_transitive_closure(seed):
    """``affected_component`` equals the brute-force transitive closure
    over the flow/link sharing graph."""
    rng = random.Random(seed)
    flows = [_random_flow(rng, fid) for fid in range(rng.randint(1, 30))]
    changed = set(
        rng.sample([f.flow_id for f in flows], rng.randint(1, len(flows)))
    )
    got = affected_component(flows, changed)
    # Brute force: fixed-point closure over shared links.
    closure = set(changed)
    links: set = set()
    for flow in flows:
        if flow.flow_id in closure:
            links.update(flow.links)
    while True:
        grew = False
        for flow in flows:
            if flow.flow_id in closure:
                continue
            if any(link in links for link in flow.links):
                closure.add(flow.flow_id)
                links.update(flow.links)
                grew = True
        if not grew:
            break
    assert got == closure


# ----------------------------------------------------------------------
# The index itself: exact components, touched links, checkpoints
# ----------------------------------------------------------------------
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
    resolve-per-event (the engine's rhythm) with batched mutations."""

    #: Patched over ``VECTOR_COMPONENT_THRESHOLD`` for the run, so short
    #: programs also exercise the resident columns (None: leave it).
    threshold = None

    def __init__(self):
        super().__init__()
        self._saved_threshold = fairshare.VECTOR_COMPONENT_THRESHOLD
        if self.threshold is not None:
            fairshare.VECTOR_COMPONENT_THRESHOLD = self.threshold
        self.capacities = {
            link: (10e6, 100e6, 1e9, 10e9)[link % 4] for link in range(SMALL_LINKS)
        }
        self.solver = IncrementalSolver()
        self.copy = None  # unpickled twin, fed the same steps
        self.live = {}
        self.next_id = 0
        self.removed_links = set()
        self.reported = {}  # live flows' rates as of the last resolve

    def teardown(self):
        fairshare.VECTOR_COMPONENT_THRESHOLD = self._saved_threshold

    def _each(self):
        return [s for s in (self.solver, self.copy) if s is not None]

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

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6), then_resolve=st.booleans())
    def remove(self, pick, then_resolve):
        flow = self.live.pop(self._pick(pick).flow_id)
        self.reported.pop(flow.flow_id, None)
        self._note_departure(flow)
        for solver in self._each():
            solver.remove(flow.flow_id)
        if then_resolve:
            self.resolve(full=False)

    @rule(link=st.integers(0, SMALL_LINKS - 1),
          capacity=st.sampled_from((10e6, 1e9, 100e9)))
    def touch_link(self, link, capacity):
        self.capacities[link] = capacity
        for solver in self._each():
            solver.touch_link(link)

    @rule()
    def checkpoint(self):
        self.copy = pickle.loads(pickle.dumps(self.solver))

    @rule(full=st.booleans())
    def resolve(self, full):
        solver = self.solver
        before = self.reported
        updates = solver.resolve(self.capacities, full=full)
        alloc = self.reported = solver.alloc
        # (d) the unpickled twin took the same steps: same bits, same order.
        if self.copy is not None:
            assert list(self.copy.resolve(self.capacities, full=full).items()) == list(
                updates.items()
            )
            assert self.copy.alloc == alloc
            assert self.copy.last_loads == solver.last_loads
        # (b) bitwise equal to a from-scratch solve of the live flows.
        assert alloc == solve(list(self.live.values()), self.capacities)
        assert solver.flow_count() == len(self.live)
        # (e) reported by difference: exactly the live flows whose rate
        # is new or bitwise different from the last resolve's - however
        # the flow was re-routed, merged or split since - each with its
        # new rate.
        assert updates == {
            flow_id: rate
            for flow_id, rate in alloc.items()
            if flow_id not in before or before[flow_id] != rate
        }
        # (f) every published load is the sum, in insertion order, of
        # the rates of the constrained flows on the link - the same bits.
        constrained = [f for f in self.live.values() if not f.is_free()]
        loads = solver.last_loads
        for link, load in loads.items():
            total = 0.0
            for flow in constrained:
                if link in flow.links:
                    total += alloc[flow.flow_id]
            assert load == total
        # (g) loads are published for whole components and nothing else
        # (a link number outliving its last row must not leak), and the
        # components published add up to the scope reported.
        published = [
            ids for ids in solver.components()
            if any(link in loads for link in self.live[ids[0]].links)
        ]
        assert set(loads) == {
            link for ids in published for i in ids for link in self.live[i].links
        }
        free = len(self.live) - len(constrained)
        scope = sum(len(ids) for ids in published)
        assert scope <= solver.last_scope <= scope + free
        if full:
            assert solver.last_scope == len(self.live)
        # (c) every link whose load may have moved is reported: those a
        # flow left, and all of a component in which a rate moved.
        moved = set(self.removed_links)
        for ids in solver.components():
            if not updates.keys().isdisjoint(ids):
                for flow_id in ids:
                    moved.update(self.live[flow_id].links)
        assert moved <= solver.last_touched_links
        assert moved - self.removed_links <= set(loads)
        self.removed_links = set()
        # (a) no stale merge, no missed merge.
        assert _components(solver) == _true_components(self.live)


class SolverIndexSmallVectorMachine(SolverIndexMachine):
    threshold = 3


_machine_settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSolverIndex = SolverIndexMachine.TestCase
TestSolverIndex.settings = _machine_settings
TestSolverIndexSmallVector = SolverIndexSmallVectorMachine.TestCase
TestSolverIndexSmallVector.settings = _machine_settings


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
    assert {"a", "b", "c", "d"} <= solver.last_touched_links
    assert solver.alloc == solve(left + right, caps)
    # The halves are independent now: touching one leaves the other cached.
    solver.upsert(FlowDemand(0, 4.0, ["a"]))
    assert set(solver.resolve(caps)) == {0, 1}


def test_link_leaves_its_component_with_its_last_flow():
    """The trap: flow 0 is the last on link ``a``.  Once it is gone
    ``a`` must no longer belong to flow 1's component, or a later flow
    on ``a`` alone would join a component it shares nothing with."""
    caps = {"a": 10.0, "b": 10.0, "c": 10.0}
    survivor = FlowDemand(1, 8.0, ["b", "c"])
    solver = _solver_with(FlowDemand(0, 8.0, ["a", "b"]), survivor)
    solver.resolve(caps)
    solver.remove(0)
    solver.resolve(caps)  # re-partition finds one part and clears the mark
    assert solver.stats["repartitions"] == 1
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
