"""The max-min certificate (``certificate.py``) on hand-built cases: it
accepts the max-min allocation and names each condition a wrong one
breaks, on plain inputs and on a flow engine."""

import pytest

from repro.flowsim import FlowLevelEngine
from repro.flowsim.fairshare import FlowDemand, _Columns
from repro.net.generators import single_switch
from repro.openflow import attach_pipeline
from repro.sim import Simulator

from conftest import install_ip_path
from workloads import make_flow

from .certificate import engine_violations, violations

#: Parking lot: ``long`` crosses both links, each short flow one.
PARKING = [
    FlowDemand("long", 100.0, ["l1", "l2"]),
    FlowDemand("s1", 100.0, ["l1"]),
    FlowDemand("s2", 2.0, ["l2"]),
]
CAPS = {"l1": 10.0, "l2": 10.0}
MAXMIN = {"long": 5.0, "s1": 5.0, "s2": 2.0}


def test_the_max_min_allocation_passes():
    assert violations(PARKING, MAXMIN, CAPS) == []


@pytest.mark.parametrize("rates, broken", [
    ({**MAXMIN, "s2": 3.0}, "s2': rate 3.0 outside"),            # over demand
    ({**MAXMIN, "s1": -1.0}, "s1': rate -1.0 outside"),           # negative
    ({**MAXMIN, "long": 6.0}, "link 'l1': load 11.0 over"),       # over capacity
    ({**MAXMIN, "long": 4.0}, "flow 'long': rate 4.0 below"),     # l1 not full
    ({"long": 6.0, "s1": 4.0, "s2": 2.0}, "flow 's1': rate 4.0"),  # not the top share
])
def test_each_broken_condition_is_named(rates, broken):
    assert any(broken in line for line in violations(PARKING, rates, CAPS))


def test_weights_and_pinned_draw():
    """The bottleneck share is ``rate / weight`` among unpinned flows;
    a link may carry its pinned draw even above its capacity."""
    flows = [
        FlowDemand("heavy", 100.0, ["l"], weight=3.0),
        FlowDemand("light", 100.0, ["l"]),
        FlowDemand("cbr", 4.0, ["l"], pinned=True),
    ]
    assert violations(flows, {"heavy": 4.5, "light": 1.5, "cbr": 4.0}, {"l": 10.0}) == []
    assert violations(flows, {"heavy": 3.0, "light": 3.0, "cbr": 4.0}, {"l": 10.0})
    assert violations(flows, {"heavy": 0.0, "light": 0.0, "cbr": 4.0}, {"l": 3.0}) == []


def _star_engine():
    topo = single_switch(3, capacity_bps=10e6)
    attach_pipeline(topo.switch("s1"))
    for dst in ("h2", "h3"):
        install_ip_path(topo, "h1", dst)
    sim = Simulator()
    engine = FlowLevelEngine(sim, topo)
    engine.submit(make_flow(topo, "h1", "h2", demand=8e6, duration=1.0))
    engine.submit(make_flow(topo, "h1", "h3", demand=8e6, duration=1.0, sport=1001))
    sim.run(until=0.5)
    return engine


def test_an_engine_rate_that_was_not_applied_is_named():
    engine = _star_engine()
    assert engine_violations(engine) == []
    flow = engine.active_flows[0]
    flow.rate_bps += 1.0
    (found,) = engine_violations(engine)
    assert f"flow {flow.flow_id}: rate_bps" in found


@pytest.mark.no_certificate
def test_a_wrong_kernel_is_caught_at_the_engine(monkeypatch):
    """Every rate halved: the shared uplink is left half empty."""
    fill = _Columns.fill

    def halved(self, capacities, epoch=0):
        rates, _ = fill(self, capacities, epoch)
        return rates / 2.0, None

    monkeypatch.setattr(_Columns, "fill", halved)
    found = engine_violations(_star_engine())
    assert len(found) == 2 and all("below demand" in line for line in found)
