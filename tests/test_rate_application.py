"""The engine applies the solver's answer by difference.

``IncrementalSolver.resolve`` returns only the rates that moved and
publishes the load of every link it touched; the engine writes those
loads to ``LinkDirection.allocated_bps``, applies the moved rates and
rebuilds the external demands' share of the touched directions.  These
tests pin what that bookkeeping must add up to after every event, in
both solver modes, and the two cases a by-difference engine gets wrong
first: the last external demand leaving, and a starved flow whose rate
never moves.
"""

import pytest

from repro.core.config import SOLVER_MODES, HorseConfig
from repro.flowsim import FlowLevelEngine, FlowState
from repro.net.generators import single_switch
from repro.openflow import attach_pipeline
from repro.sim import Simulator

from conftest import install_ip_path
from workloads import make_flow

CAPACITY = 10e6


def _star():
    """Four hosts on one switch, a rule per destination."""
    topo = single_switch(4, capacity_bps=CAPACITY)
    attach_pipeline(topo.switch("s1"))
    for src in topo.hosts:
        for dst in topo.hosts:
            if src is not dst:
                install_ip_path(topo, src.name, dst.name)
    return topo


def _path(topo, src, dst):
    return topo.path_links(topo.shortest_path(src, dst))


def _assert_loads_add_up(engine, topo, externals):
    """Every direction's ``allocated_bps`` is the sum, in solver
    insertion order, of the exact rates of the demands crossing it, and
    ``background_load`` is that minus the live externals' rates."""
    solver = engine._solver
    alloc = solver.alloc
    load = {}
    for demand in solver._flows.values():
        if not demand.is_free():
            for index in demand.links:
                load[index] = load.get(index, 0.0) + alloc[demand.flow_id]
    share = {}
    for key, directions in externals.items():
        for direction in directions:
            share[direction] = share.get(direction, 0.0) + engine.external_rate(key)
    for direction in topo.directions():
        index = engine._dir_index.get(direction)
        assert direction.allocated_bps == load.get(index, 0.0), direction
        assert engine.background_load(direction) == max(
            0.0, direction.allocated_bps - share.get(direction, 0.0)
        ), direction


def _churn(mode):
    """Arrivals, completions, a duration flow, a link flap and four
    external-demand changes; the sums are checked after every event."""
    topo = _star()
    sim = Simulator()
    engine = FlowLevelEngine(sim, topo, config=HorseConfig(solver=mode))
    flows = [
        make_flow(topo, "h1", "h2", demand=8e6, size=1_000_000),
        make_flow(topo, "h3", "h2", demand=8e6, size=500_000, start=0.2, sport=1001),
        make_flow(topo, "h1", "h4", demand=6e6, duration=1.5, start=0.3, sport=1002),
        make_flow(topo, "h3", "h4", demand=9e6, size=400_000, start=0.4, sport=1003),
        make_flow(topo, "h2", "h1", demand=3e6, size=300_000, start=0.5, sport=1004),
        make_flow(topo, "h4", "h2", demand=7e6, size=600_000, start=0.9, sport=1005,
                  elastic=False),
    ]
    engine.submit_all(flows)
    externals = {}  # key -> directions, in registration order

    def set_external(sim, key, demand, src, dst, pinned):
        externals[key] = _path(topo, src, dst)
        engine.set_external_demand(key, demand, externals[key], pinned=pinned)
        engine.recompute_rates()

    def clear_external(sim, key):
        del externals[key]
        engine.clear_external_demand(key)
        engine.recompute_rates()

    sim.call_at(0.1, set_external, "x", 4e6, "h3", "h2", True)
    sim.call_at(0.35, set_external, "y", 5e6, "h1", "h2", False)
    sim.call_at(0.6, set_external, "x", 1e6, "h3", "h2", True)  # same key: new demand
    sim.call_at(0.8, clear_external, "y")
    sim.call_at(1.1, clear_external, "x")  # the last one leaves
    engine.fail_link_at(0.7, "h3", "s1")
    engine.restore_link_at(1.0, "h3", "s1")

    events = 0
    while sim.step() is not None:
        events += 1
        _assert_loads_add_up(engine, topo, externals)
    engine.finish()
    assert events >= 15
    assert all(flow.finished for flow in flows)
    return [
        (flow.state, flow.end_time, flow.bytes_sent, flow.bytes_dropped)
        for flow in flows
    ]


def test_loads_and_background_load_add_up_after_every_event():
    incremental, full = (_churn(mode) for mode in SOLVER_MODES)
    assert incremental == full  # bitwise: one apply path for both modes


@pytest.mark.parametrize("mode", SOLVER_MODES)
def test_clearing_the_last_external_restores_background_load(mode):
    """With no external left the engine has no external to iterate, but
    the directions the last one crossed must still lose its share."""
    topo = _star()
    sim = Simulator()
    engine = FlowLevelEngine(sim, topo, config=HorseConfig(solver=mode))
    flow = make_flow(topo, "h1", "h2", demand=8e6, duration=5.0)
    engine.submit(flow)
    sim.run(until=1.0)
    bottleneck = _path(topo, "h1", "h2")[-1]
    engine.set_external_demand("fg", 4e6, _path(topo, "h3", "h2"), pinned=True)
    engine.recompute_rates()
    assert flow.rate_bps == 6e6
    assert bottleneck.allocated_bps == 10e6
    assert engine.background_load(bottleneck) == 6e6
    engine.clear_external_demand("fg")
    engine.recompute_rates()
    assert flow.rate_bps == 8e6
    assert bottleneck.allocated_bps == 8e6
    assert engine.background_load(bottleneck) == 8e6
    for direction in _path(topo, "h3", "h2")[:-1]:
        assert direction.allocated_bps == 0.0
        assert engine.background_load(direction) == 0.0


def _starved(mode):
    topo = _star()
    sim = Simulator()
    engine = FlowLevelEngine(sim, topo, config=HorseConfig(solver=mode))
    # The whole h1 -> h2 path is pinned away before the flow arrives.
    engine.set_external_demand("fg", CAPACITY, _path(topo, "h1", "h2"), pinned=True)
    starved = make_flow(topo, "h1", "h2", demand=7e6 / 3, size=1_000_000,
                        elastic=False)
    # Traffic elsewhere: events that touch another component only.
    others = [
        make_flow(topo, "h3", "h4", demand=7e6, size=100_000, start=start, sport=port)
        for port, start in enumerate((0.1, 0.3, 0.7, 0.9), 2000)
    ]
    engine.submit_all([starved] + others)
    sim.run(until=2.1)
    engine.finish()
    assert starved.state is FlowState.ACTIVE and starved.rate_bps == 0.0
    assert all(flow.finished for flow in others)
    return starved.bytes_dropped


def test_starved_flow_drops_the_same_bytes_in_both_modes():
    """A sized inelastic flow held at exactly 0 bps never has its rate
    moved, so neither mode re-touches it between its arrival and the
    final sync: its drop counter accrues in one piece either way.  (A
    full solve used to re-accrue it at every event, the incremental one
    only at the end: 612500.0000000001 against 612500.0 bytes here.)"""
    incremental, full = (_starved(mode) for mode in SOLVER_MODES)
    assert incremental == full
    assert incremental == pytest.approx(7e6 / 3 * 2.1 / 8)
