"""Max-min fairness solver tests: hand cases + properties + parity
with the textbook loop (``tests/diff/reference.py``)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim.fairshare import (
    EPSILON_BPS,
    RELATIVE_EPSILON,
    FlowDemand,
    IncrementalSolver,
    demand_eps,
    saturation_eps,
    solve,
    solve_arrays,
)

from diff.reference import as_arrays, solve_scalar


def fd(flow_id, demand, links):
    return FlowDemand(flow_id, demand, links)


class TestHandCases:
    def test_two_flows_split_one_link(self):
        alloc = solve([fd("a", 10, ["l"]), fd("b", 10, ["l"])], {"l": 10})
        assert alloc == {"a": 5.0, "b": 5.0}

    def test_demand_limited_flow_frees_capacity(self):
        alloc = solve([fd("a", 2, ["l"]), fd("b", 100, ["l"])], {"l": 10})
        assert alloc["a"] == pytest.approx(2.0)
        assert alloc["b"] == pytest.approx(8.0)

    def test_multi_bottleneck_chain(self):
        # a crosses l1 (cap 10) and l2 (cap 4); b crosses l2 only.
        alloc = solve(
            [fd("a", 100, ["l1", "l2"]), fd("b", 100, ["l2"])],
            {"l1": 10, "l2": 4},
        )
        assert alloc["a"] == pytest.approx(2.0)
        assert alloc["b"] == pytest.approx(2.0)

    def test_classic_parking_lot(self):
        # Long flow crosses both links; two short flows one link each.
        alloc = solve(
            [
                fd("long", 100, ["l1", "l2"]),
                fd("s1", 100, ["l1"]),
                fd("s2", 100, ["l2"]),
            ],
            {"l1": 10, "l2": 10},
        )
        assert alloc["long"] == pytest.approx(5.0)
        assert alloc["s1"] == pytest.approx(5.0)
        assert alloc["s2"] == pytest.approx(5.0)

    def test_unequal_bottlenecks_shift_share(self):
        alloc = solve(
            [fd("a", 100, ["l1"]), fd("b", 100, ["l1", "l2"])],
            {"l1": 10, "l2": 3},
        )
        assert alloc["b"] == pytest.approx(3.0)
        assert alloc["a"] == pytest.approx(7.0)

    def test_linkless_flow_gets_demand(self):
        alloc = solve([fd("a", 7, [])], {})
        assert alloc == {"a": 7.0}

    def test_zero_demand_flow(self):
        alloc = solve([fd("a", 0, ["l"]), fd("b", 10, ["l"])], {"l": 10})
        assert alloc["a"] == 0.0
        assert alloc["b"] == pytest.approx(10.0)

    def test_duplicate_links_deduplicated(self):
        demand = fd("a", 100, ["l", "l", "l"])
        assert demand.links == ("l",)
        alloc = solve([demand], {"l": 10})
        assert alloc["a"] == pytest.approx(10.0)

    def test_missing_capacity_raises(self):
        with pytest.raises(KeyError):
            solve([fd("a", 1, ["ghost"])], {})

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            fd("a", -1, [])

    def test_nan_inputs_rejected(self):
        """``nan < 0`` is false, so a plain range test lets NaN through
        to a rate that then accrues into byte counters."""
        nan = float("nan")
        with pytest.raises(ValueError, match="demand"):
            fd("a", nan, ["l"])
        with pytest.raises(ValueError, match="weight"):
            FlowDemand("a", 1.0, ["l"], weight=nan)
        with pytest.raises(ValueError, match="weight"):
            FlowDemand("a", 1.0, ["l"], weight=float("inf"))
        with pytest.raises(ValueError, match="pinned"):
            FlowDemand("a", float("inf"), ["l"], pinned=True)

    @pytest.mark.parametrize("size", [2, 47, 48, 200])
    def test_uncapped_flow_takes_what_the_capped_ones_leave(self, size):
        """An infinite demand is never demand-satisfied, only stopped
        by its link - and computing that warns about nothing."""
        capped = [fd(i, 1.0 + i / size, ["l"]) for i in range(size - 1)]
        flows = capped[: size // 2] + [fd("open", float("inf"), ["l"])] + capped[size // 2:]
        cap = 10.0 * size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = solve(flows, {"l": cap})
        for flow in capped:
            assert alloc[flow.flow_id] == flow.demand_bps
        assert alloc["open"] == pytest.approx(
            cap - sum(f.demand_bps for f in capped), rel=1e-12
        )

    def test_empty_input(self):
        assert solve([], {}) == {}
        assert solve_arrays(
            np.empty(0), np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp)
        ).size == 0


# ----------------------------------------------------------------------
# Random instances shared by the property tests
# ----------------------------------------------------------------------

instances = st.integers(min_value=0, max_value=10_000).flatmap(
    lambda seed: st.just(seed)
)


def build_instance(seed):
    import random

    rng = random.Random(seed)
    num_links = rng.randint(1, 12)
    num_flows = rng.randint(1, 40)
    caps = {f"l{i}": rng.uniform(1.0, 1000.0) for i in range(num_links)}
    flows = []
    for i in range(num_flows):
        count = rng.randint(0, min(5, num_links))
        links = rng.sample(sorted(caps), count)
        flows.append(fd(i, rng.uniform(0.1, 500.0), links))
    return flows, caps


@settings(max_examples=120, deadline=None)
@given(instances)
def test_property_feasibility_and_demand_cap(seed):
    """No link over capacity; no flow above demand; no negative rates."""
    flows, caps = build_instance(seed)
    alloc = solve(flows, caps)
    for flow in flows:
        assert -1e-9 <= alloc[flow.flow_id] <= flow.demand_bps + 1e-6
    for link, cap in caps.items():
        used = sum(alloc[f.flow_id] for f in flows if link in f.links)
        assert used <= cap * (1 + 1e-6) + 1e-6


@settings(max_examples=120, deadline=None)
@given(instances)
def test_property_max_min_condition(seed):
    """Every flow is either demand-satisfied or crosses a saturated link
    on which it has a maximal rate — the max-min optimality condition."""
    flows, caps = build_instance(seed)
    alloc = solve(flows, caps)
    tol = 1e-5
    for flow in flows:
        rate = alloc[flow.flow_id]
        if rate >= flow.demand_bps - max(tol, tol * flow.demand_bps):
            continue
        bottlenecked = False
        for link in flow.links:
            used = sum(alloc[f.flow_id] for f in flows if link in f.links)
            cap = caps[link]
            saturated = used >= cap - max(tol, tol * cap)
            on_link = [alloc[f.flow_id] for f in flows if link in f.links]
            is_max = rate >= max(on_link) - max(tol, tol * max(on_link))
            if saturated and is_max:
                bottlenecked = True
                break
        assert bottlenecked, (flow.flow_id, rate, flow.demand_bps)


@settings(max_examples=120, deadline=None)
@given(instances)
def test_property_scalar_vector_parity(seed):
    """The kernel - through ``solve``'s partition and as one
    ``solve_arrays`` call - matches the textbook scalar loop."""
    flows, caps = build_instance(seed)
    ref = solve_scalar(flows, caps)
    assert solve(flows, caps) == pytest.approx(ref, rel=1e-9, abs=1e-9)
    vec = solve_arrays(**as_arrays(flows, caps))
    for i, flow in enumerate(flows):
        assert vec[i] == pytest.approx(ref[flow.flow_id], rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(instances)
def test_property_incremental_matches_full(seed):
    """Incremental updates converge to the same allocation as full solves
    across a random add/remove schedule."""
    import random

    flows, caps = build_instance(seed)
    rng = random.Random(seed + 1)
    incremental = IncrementalSolver()
    current = []
    pending = list(flows)
    rng.shuffle(pending)
    while pending or current:
        if pending and (not current or rng.random() < 0.6):
            flow = pending.pop()
            current.append(flow)
            incremental.upsert(flow)
        else:
            flow = current.pop(rng.randrange(len(current)))
            incremental.remove(flow.flow_id)
        incremental.resolve(caps)
        got = incremental.alloc
        assert got.keys() == {f.flow_id for f in current}
        want = solve(current, caps)
        for f in current:
            assert got[f.flow_id] == pytest.approx(
                want[f.flow_id], rel=1e-5, abs=1e-5
            )


class TestRelativeTolerance:
    """The saturation/demand thresholds scale with magnitude: at 100 Gbps
    one ulp is ~1.5e-5 bps, so the legacy absolute 1e-6 bps threshold sat
    *below* float rounding noise and saturated links could be missed."""

    CAP_100G = 100e9

    def test_saturation_eps_is_relative_at_100g(self):
        eps = saturation_eps(self.CAP_100G)
        assert eps == RELATIVE_EPSILON * self.CAP_100G  # 100 bps
        # It must exceed one ulp of the capacity, or rounding during the
        # fill loop defeats saturation detection.
        assert eps > np.spacing(self.CAP_100G)
        # Small capacities keep the absolute floor.
        assert saturation_eps(1.0) == EPSILON_BPS
        assert demand_eps(self.CAP_100G) > np.spacing(self.CAP_100G)

    def test_two_flows_split_100g_link_exactly(self):
        alloc = solve(
            [fd("a", self.CAP_100G, ["l"]), fd("b", self.CAP_100G, ["l"])],
            {"l": self.CAP_100G},
        )
        assert alloc == {"a": 50e9, "b": 50e9}

    def test_three_way_split_saturates_despite_rounding(self):
        # cap/3 is inexact in binary; the three shares need not sum back
        # to exactly cap.  The relative threshold must still classify the
        # link as saturated and hold every flow at the fair share.
        cap = self.CAP_100G
        alloc = solve(
            [fd("a", cap, ["l"]), fd("b", cap, ["l"]), fd("c", cap, ["l"])],
            {"l": cap},
        )
        share = cap / 3.0
        assert all(rate == pytest.approx(share, rel=1e-12)
                   for rate in alloc.values())
        assert sum(alloc.values()) <= cap + saturation_eps(cap)

    def test_100g_parking_lot(self):
        # Classic parking lot at 100G: the shared link saturates, the
        # demand-limited flow frees its slack to the others.
        cap = self.CAP_100G
        alloc = solve(
            [
                fd("long", cap, ["l1", "l2"]),
                fd("short1", cap, ["l1"]),
                fd("limited", 10e9, ["l2"]),
            ],
            {"l1": cap, "l2": cap},
        )
        assert alloc["limited"] == 10e9
        assert alloc["long"] == pytest.approx(cap / 2.0, rel=1e-12)
        assert alloc["short1"] == pytest.approx(cap / 2.0, rel=1e-12)

    def test_incremental_matches_solve_at_100g(self):
        cap = self.CAP_100G
        flows = [
            fd("a", cap, ["l1", "l2"]),
            fd("b", cap / 3.0, ["l1"]),
            fd("c", cap, ["l2"]),
        ]
        caps = {"l1": cap, "l2": cap}
        solver = IncrementalSolver()
        for flow in flows:
            solver.upsert(flow)
        solver.resolve(caps)
        assert {f.flow_id: solver.alloc[f.flow_id] for f in flows} == solve(
            flows, caps
        )


class TestResolveScope:
    """What a change re-solves: the changed flow's component."""

    @staticmethod
    def solver_with(flows, caps):
        solver = IncrementalSolver()
        for flow in flows:
            solver.upsert(flow)
        solver.resolve(caps)
        return solver

    def test_transitive_closure(self):
        flows = [
            fd("a", 1, ["l1"]),
            fd("b", 1, ["l1", "l2"]),
            fd("c", 1, ["l2"]),
            fd("d", 1, ["l9"]),
        ]
        caps = {"l1": 10, "l2": 10, "l9": 10}
        solver = self.solver_with(flows, caps)
        assert sorted(solver.components()) == [["a", "b", "c"], ["d"]]
        solver.upsert(fd("a", 2, ["l1"]))
        solver.resolve(caps)
        assert solver.last_scope == 3  # a, b, c; d's component stays cached

    def test_unknown_flow_ignored(self):
        caps = {"l": 10}
        solver = self.solver_with([fd("a", 1, ["l"])], caps)
        solver.remove("ghost")
        assert solver.resolve(caps) == {}
        assert solver.last_scope == 0
        assert solver.components() == [["a"]]

    def test_incremental_scope_is_smaller_for_disjoint_flows(self):
        caps = {"l1": 10, "l2": 10}
        incremental = self.solver_with([fd("a", 5, ["l1"])], caps)
        incremental.upsert(fd("b", 5, ["l2"]))
        assert incremental.resolve(caps) == {"b": 5.0}
        assert incremental.last_scope == 1  # only b's component re-solved
