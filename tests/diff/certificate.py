"""The max-min certificate: what any max-min fair allocation satisfies,
checked from the inputs and the rates alone, without solving anything.

For flows (:class:`~repro.flowsim.fairshare.FlowDemand`), their rates
and the link capacities, :func:`violations` checks that

1. every rate lies in ``[0, demand]``;
2. no link carries more than its capacity, unless the draw of its
   pinned flows alone exceeds it (they take their demand off the top;
   the elastic flows there then get nothing);
3. every flow below its demand crosses a saturated link on which its
   ``rate / weight`` is the highest among the unpinned flows crossing
   it (the weighted max-min bottleneck condition: its rate cannot rise
   without lowering a rate no higher than its own) - except a flow
   crossing no link, which nothing carries: its rate is 0, whatever
   its demand.

Each comparison allows ``max(TOL, TOL * x)`` of the quantity ``x``
compared.  :func:`engine_violations` applies the same to a flow
engine's solver after a resolve (hybrid external demands included) and
adds a fourth condition: every active flow carries the solver's rate,
to within the engine's ``_RATE_EPS``.  ``tests/conftest.py`` runs it
after every flow-engine resolve of the suite.
"""

from typing import Dict, Hashable, Iterable, List, Mapping

from repro.flowsim.engine import _RATE_EPS
from repro.flowsim.fairshare import FlowDemand
from repro.flowsim.flow import FlowState

#: Relative (and absolute) tolerance of every comparison.
TOL = 1e-5


def _slack(value: float) -> float:
    return max(TOL, TOL * value)


def violations(
    flows: Iterable[FlowDemand],
    rates: Mapping[Hashable, float],
    capacities: Mapping[Hashable, float],
) -> List[str]:
    """The conditions above that ``rates`` break, one line each."""
    flows = list(flows)
    found: List[str] = []
    load: Dict[Hashable, float] = {}
    pinned_draw: Dict[Hashable, float] = {}
    top: Dict[Hashable, float] = {}  # highest rate / weight of an unpinned flow
    for flow in flows:
        rate = rates.get(flow.flow_id)
        if rate is None or not 0.0 <= rate <= flow.demand_bps + _slack(flow.demand_bps):
            found.append(f"flow {flow.flow_id!r}: rate {rate} outside [0, {flow.demand_bps}]")
            continue
        for link in flow.links:
            load[link] = load.get(link, 0.0) + rate
            if flow.pinned:
                pinned_draw[link] = pinned_draw.get(link, 0.0) + flow.demand_bps
            else:
                top[link] = max(top.get(link, 0.0), rate / flow.weight)
    if found:
        return found
    for link, total in load.items():
        bound = max(capacities[link], pinned_draw.get(link, 0.0))
        if total > bound + _slack(bound):
            found.append(f"link {link!r}: load {total} over capacity {capacities[link]}")
    for flow in flows:
        rate = rates[flow.flow_id]
        if not flow.links:
            # Nothing carries it: no rate, whatever its demand.
            if rate != 0.0:
                found.append(f"flow {flow.flow_id!r}: rate {rate} without a link")
            continue
        if rate >= flow.demand_bps - _slack(flow.demand_bps):
            continue
        share = rate / flow.weight
        if flow.pinned or not any(
            load[link] >= capacities[link] - _slack(capacities[link])
            and share >= top[link] - _slack(top[link])
            for link in flow.links
        ):
            found.append(
                f"flow {flow.flow_id!r}: rate {rate} below demand {flow.demand_bps} "
                "with no saturated link on which it has the highest share"
            )
    return found


def engine_violations(engine) -> List[str]:
    """:func:`violations` on a flow engine's solver inputs and rates
    (its flows and external demands, over the registered capacities),
    then every active flow's ``rate_bps`` against the solver's rate."""
    solver = engine._solver
    rates = solver.alloc
    found = violations(solver._flows.values(), rates, engine._dir_caps.tolist())
    for flow in engine.active.values():
        # A blocked flow left the solver and carries nothing.
        expected = 0.0 if flow.state is FlowState.BLOCKED else rates.get(flow.flow_id)
        if expected is None or not abs(flow.rate_bps - expected) <= _RATE_EPS:
            found.append(f"flow {flow.flow_id}: rate_bps {flow.rate_bps}, solver {expected}")
    return found
