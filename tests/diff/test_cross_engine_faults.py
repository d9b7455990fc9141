"""Cross-engine property: a link fault means the same thing on every engine.

A link failure or recovery is one input event (``LinkStateChange``)
and one handler (``Engine.on_link_state``): the flow, packet and hybrid
engines all flip the topology and tell the controller through it, and
only what each engine then does with its traffic differs.  So the
packet engine is ground truth for failure behaviour too:

- E9's triangle under controller repair loses about rate x 2 control
  latencies per failure on both engines, and under fast-failover
  groups nothing;
- on a leaf-spine with shortest-path forwarding, a spine flap leaves
  the same flows delivering, with bytes that differ only by the few
  packets in flight on the link when it fails;
- one document with a drawn ``faults`` list sends the controller the
  same ``PortStatus`` sequence, at the same instants, whatever engine
  runs it.
"""

import random

import pytest

from repro import Flow
from repro.control import ControlChannel, Controller
from repro.control.apps import PathProtectionApp, ShortestPathApp
from repro.flowsim import FlowLevelEngine
from repro.net.generators import full_mesh, leaf_spine
from repro.openflow import attach_pipeline
from repro.openflow.headers import udp_flow
from repro.pktsim import PacketLevelEngine
from repro.runtime.scenario import build_topology, run_scenario
from repro.sim import Simulator
from repro.traffic.trace_io import flow_to_record

from workloads import churn_faults, make_flow, port_status_log

ENGINES = (FlowLevelEngine, PacketLevelEngine)


def _controlled(topo, app, engine_cls, latency_s):
    """``engine_cls`` on ``topo`` under one controller app; the
    proactive rules have landed when this returns (at t=1)."""
    for switch in topo.switches:
        attach_pipeline(switch)
    sim = Simulator()
    controller = Controller()
    controller.add_app(app(match_on="ip_dst"))
    channel = ControlChannel(sim, topo, controller=controller, latency_s=latency_s)
    engine = engine_cls(sim, topo, control=channel)
    channel.connect_engine(engine)
    controller.start()
    sim.run(until=1.0)
    return sim, engine


# ----------------------------------------------------------------------
# E9's triangle: controller repair vs fast failover
# ----------------------------------------------------------------------
E9_RATE_BPS = 10e6
E9_DURATION_S = 12.0
E9_FAILURES = ((3.0, 5.0), (7.0, 9.0))  # (fail, restore) of s1-s2


def _e9_deficit(engine_cls, app):
    """Bytes a CBR flow h1 -> h2 falls short of its offered volume."""
    topo = full_mesh(3, hosts_per_switch=1)
    sim, engine = _controlled(topo, app, engine_cls, latency_s=0.05)
    h1, h2 = topo.host("h1"), topo.host("h2")
    flow = Flow(
        headers=udp_flow(h1.ip, h2.ip, 1000, 80), src="h1", dst="h2",
        demand_bps=E9_RATE_BPS, duration_s=E9_DURATION_S, start_time=1.0,
        elastic=False,
    )
    engine.submit(flow)
    for fail_at, restore_at in E9_FAILURES:
        engine.fail_link_at(fail_at, "s1", "s2")
        engine.restore_link_at(restore_at, "s1", "s2")
    sim.run(until=20.0)
    engine.finish()
    return E9_RATE_BPS * E9_DURATION_S / 8.0 - flow.bytes_delivered


def test_controller_repair_loses_the_same_bytes_on_both_engines():
    flow, packet = (_e9_deficit(cls, ShortestPathApp) for cls in ENGINES)
    # Port-status up, flow-mods down: two latencies of traffic per failure.
    assert flow == pytest.approx(E9_RATE_BPS * 0.1 * len(E9_FAILURES) / 8.0)
    assert packet == pytest.approx(flow, rel=0.01)


def test_fast_failover_loses_nothing_on_either_engine():
    assert [_e9_deficit(cls, PathProtectionApp) for cls in ENGINES] == [0.0, 0.0]


# ----------------------------------------------------------------------
# A spine flap on a leaf-spine
# ----------------------------------------------------------------------
SPINE_PAIRS = (("h1", "h3"), ("h2", "h4"), ("h3", "h1"), ("h4", "h2"), ("h1", "h2"))
SPINE_BYTES = 450_000


def _spine_flap(engine_cls):
    """Five CBR transfers of 450 kB at 20 Mb/s; the uplink leaf1-spine1
    that the cross-leaf ones start on is down from 1.1 s to 1.15 s."""
    topo = leaf_spine(2, 2, hosts_per_leaf=2, leaf_bps=100e6)
    sim, engine = _controlled(topo, ShortestPathApp, engine_cls, latency_s=0.0)
    flows = [
        make_flow(topo, src, dst, demand=20e6, size=SPINE_BYTES, start=1.0,
                  sport=1000 + i, elastic=False)
        for i, (src, dst) in enumerate(SPINE_PAIRS)
    ]
    for f in flows:
        engine.submit(f)
    engine.fail_link_at(1.1, "leaf1", "spine1")
    engine.restore_link_at(1.15, "leaf1", "spine1")
    sim.run(until=3.0)
    engine.finish()
    return flows


def test_a_spine_flap_delivers_the_same_flows_on_both_engines():
    flow, packet = (_spine_flap(cls) for cls in ENGINES)
    # The flap moved every cross-leaf flow off the spine and back.
    assert [f.reroutes for f in flow] == [2, 2, 2, 2, 0]
    assert [f.bytes_delivered for f in flow] == [SPINE_BYTES] * len(SPINE_PAIRS)
    # On the packet engine only the packets in flight on the failing
    # link are lost.
    delivered = [f.bytes_delivered for f in packet]
    assert delivered == pytest.approx([SPINE_BYTES] * len(SPINE_PAIRS), rel=0.01)
    assert 0 < sum(SPINE_BYTES - d for d in delivered) <= 2 * 1500


# ----------------------------------------------------------------------
# One fault document, every engine
# ----------------------------------------------------------------------
def test_one_fault_document_sends_the_same_port_status_on_every_engine():
    """Churn drawn on two uplinks, written as the document's faults:
    the flow, packet and hybrid engines all tell the controller about
    both switch ends of each link at exactly the drawn instants."""
    topology = {"kind": "leaf-spine", "leaves": 2, "spines": 2, "hosts_per_leaf": 2}
    topo, _ = build_topology(topology)
    faults = churn_faults(random.Random(3), [("leaf1", "spine1"), ("leaf2", "spine2")],
                          mtbf_s=1.0, mttr_s=0.2, horizon_s=4.0)
    assert len(faults) >= 4

    def port_status(engine):
        logs = []
        run_scenario({
            "schema_version": 1, "engine": engine, "until": 5.0,
            "hybrid": {"select": "all"},
            "topology": topology,
            "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
            "traffic": {"kind": "trace", "flows": [flow_to_record(make_flow(
                topo, "h1", "h3", demand=1e6, duration=4.0, elastic=False))]},
            "faults": faults,
        }, before_run=lambda horse, count: logs.append(port_status_log(horse)))
        return logs[0]

    flow = port_status("flow")
    expected = []
    for fault in faults:
        link = topo.link_between(*fault["link"])
        expected += [(fault["at"], port.node.dpid, port.number, fault["up"])
                     for port in (link.port_a, link.port_b)]
    assert flow == expected
    assert port_status("packet") == flow
    assert port_status("hybrid") == flow
