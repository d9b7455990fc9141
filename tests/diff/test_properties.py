"""Property-based tests of the max-min (water-filling) invariants.

For any instance — weighted flows included — a max-min allocation must
satisfy:

1. feasibility: no link direction carries more than its capacity;
2. demand caps: no flow exceeds its own demand;
3. optimality: every flow held below its demand is blocked by at least
   one saturated link on which no unpinned flow has a higher share
   (otherwise its rate could rise, contradicting max-min fairness);
   the max-min certificate (``certificate.py``) states this one.

Both the from-scratch :func:`.reference.solve` and the stateful
:class:`IncrementalSolver` must satisfy them, and must agree bitwise.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim.fairshare import FlowDemand, IncrementalSolver

from .certificate import violations
from .reference import solve

#: Tolerances for re-derived sums: the solver's own thresholds are
#: relative (RELATIVE_EPSILON), and re-accumulating allocations adds a
#: few ulps per member flow, so assertions allow a slightly wider band.
def _slack(value: float) -> float:
    return max(1e-3, 1e-6 * value)


capacities_st = st.floats(
    min_value=1e3, max_value=2e11, allow_nan=False, allow_infinity=False
)
demand_st = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0, max_value=1e11, allow_nan=False,
              allow_infinity=False),
)
weight_st = st.floats(
    min_value=0.1, max_value=16.0, allow_nan=False, allow_infinity=False
)


@st.composite
def instances(draw, max_flows=24, max_links=12):
    """A random weighted max-min instance (flows + link capacities)."""
    num_links = draw(st.integers(min_value=1, max_value=max_links))
    capacities = {
        link: draw(capacities_st) for link in range(num_links)
    }
    num_flows = draw(st.integers(min_value=1, max_value=max_flows))
    flows = []
    for flow_id in range(num_flows):
        links = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_links - 1),
                min_size=0,
                max_size=min(5, num_links),
                unique=True,
            )
        )
        flows.append(
            FlowDemand(
                flow_id,
                draw(demand_st),
                links,
                weight=draw(weight_st),
            )
        )
    return flows, capacities


def assert_maxmin_invariants(flows, capacities, alloc):
    by_id = {f.flow_id: f for f in flows}
    assert set(alloc) == set(by_id)
    link_total = {link: 0.0 for link in capacities}
    for flow in flows:
        rate = alloc[flow.flow_id]
        assert math.isfinite(rate)
        assert rate >= 0.0
        # (2) demand cap.
        assert rate <= flow.demand_bps + _slack(flow.demand_bps), (
            flow, rate
        )
        for link in flow.links:
            link_total[link] += rate
    # (1) feasibility.
    for link, total in link_total.items():
        assert total <= capacities[link] + _slack(capacities[link]), (
            link, total, capacities[link]
        )
    # (3) optimality, and (1) and (2) again, as the max-min certificate
    # states them: an unsatisfied flow has the highest share on one of
    # its saturated links.
    assert violations(flows, alloc, capacities) == []


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_solve_satisfies_maxmin_invariants(instance):
    flows, capacities = instance
    alloc = solve(flows, capacities)
    assert_maxmin_invariants(flows, capacities, alloc)


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_incremental_satisfies_invariants_and_matches_solve(instance):
    flows, capacities = instance
    solver = IncrementalSolver()
    for flow in flows:
        solver.upsert(flow)
    solver.resolve(capacities)
    alloc = {f.flow_id: solver.alloc[f.flow_id] for f in flows}
    assert_maxmin_invariants(flows, capacities, alloc)
    # Exactness: a freshly-built incremental index is a full solve, and
    # both run the identical component kernel — bitwise equality.
    assert alloc == solve(flows, capacities)


@settings(max_examples=40, deadline=None)
@given(instance=instances(), scale=st.sampled_from([1.0, 1e3, 1e5]))
def test_invariants_hold_across_capacity_scales(instance, scale):
    """The relative saturation tolerance keeps the invariants intact
    from megabit to multi-terabit capacities."""
    flows, capacities = instance
    scaled_caps = {link: cap * scale for link, cap in capacities.items()}
    scaled_flows = [
        FlowDemand(f.flow_id, f.demand_bps * scale, f.links, weight=f.weight)
        for f in flows
    ]
    alloc = solve(scaled_flows, scaled_caps)
    # Feasibility and demand caps, with the slack scaled accordingly.
    link_total = {link: 0.0 for link in scaled_caps}
    for flow in scaled_flows:
        rate = alloc[flow.flow_id]
        assert rate <= flow.demand_bps + _slack(flow.demand_bps) * scale
        for link in flow.links:
            link_total[link] += rate
    for link, total in link_total.items():
        assert total <= scaled_caps[link] + _slack(scaled_caps[link]) * scale
