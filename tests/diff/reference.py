"""Test-side oracle: the textbook progressive-filling loop.

This is the scalar kernel ``repro.flowsim.fairshare`` shipped until the
vectorised :func:`~repro.flowsim.fairshare.solve_arrays` became the only
one, moved here verbatim.  It freezes one demand level per iteration
where the product kernel caps demands in bulk, so the two round
differently: on heterogeneous demands they agree to a few ulp (1.3e-15
relative measured over the benchmark workloads), not bitwise.  The
differential tests compare at ``rel=1e-9``.
"""

from typing import Dict, Hashable, List, Mapping, Sequence

import numpy as np

from repro.flowsim.fairshare import FlowDemand, demand_eps, saturation_eps


def solve_scalar(
    flows: Sequence[FlowDemand], capacities: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    """The loop over all flows as one component.  Max-min components
    are independent, so no partition is needed for the rates to be
    right; a from-scratch partition is one more thing the product code
    is checked against rather than trusted for."""
    return solve_component_scalar(list(flows), capacities)


def as_arrays(flows, capacities):
    """``solve_arrays`` inputs for ``flows`` over the sorted link keys."""
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
            alloc[flow.flow_id] = flow.demand_bps
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
