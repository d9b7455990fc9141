"""Cross-engine property: random rule sets deliver the same flows.

The flow engine walks a flow's headers through the pipelines once; the
packet engine pushes every packet through them.  Both run the one
interpreter (``OpenFlowPipeline.process``) and the one punt protocol
(``Engine._resolve_punt``), so on any proactive rule set they must
agree on *which* flows get through.  The rule sets are
``rule_sets.programs`` per switch (the whole action vocabulary minus
meters: floods, reserved ports, rewrites, groups, drops, punts with no
controller), on ``linear(3, hosts_per_switch=2)``; the flows are CBR at
0.5 % of link capacity with a deep queue, so nothing is lost to
congestion, and the hop guard is short so a forwarding storm stays
small.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HorseConfig
from repro.flowsim import FlowLevelEngine
from repro.net.generators import linear
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.pktsim import PacketLevelEngine
from repro.sim import Simulator

from workloads import make_flow

from .rule_sets import programs

CAPACITY_BPS = 100e6
PAIRS = (
    ("h1", "h6"), ("h6", "h1"), ("h1", "h2"), ("h3", "h5"), ("h4", "h1"), ("h5", "h4")
)
CONFIG = HorseConfig(max_hops=3, queue_capacity_packets=1_000_000)


def _network():
    return linear(3, hosts_per_switch=2, capacity_bps=CAPACITY_BPS)


_HOSTS = _network().hosts
ADDRESSES = tuple(host.ip for host in _HOSTS)
MATCHES = (
    Match(in_port=1),
    Match(in_port=2),
    Match(tp_dst=80),
    Match(vlan_vid=10),
) + tuple(Match(ip_dst=address) for address in ADDRESSES)


def _delivering(engine_cls, switch_programs):
    """Indices of the PAIRS flows that deliver any bytes under one engine."""
    topo = _network()
    for switch, program in zip(topo.switches, switch_programs):
        # Under the random rules, shortest-path forwarding at priority 1
        # (installed first: a random rule of the same match and priority
        # replaces it), so that flows crossing all three switches get
        # through often enough to be compared.
        pipeline = attach_pipeline(switch, num_tables=program.num_tables)
        for host in topo.hosts:
            toward = topo.shortest_path(switch, host)[1]
            out = topo.egress_port(switch, toward).number
            pipeline.install(
                Match(ip_dst=host.ip), (ApplyActions((Output(out),)),), priority=1
            )
        program.install(switch)
    sim = Simulator()
    engine = engine_cls(sim, topo, None, CONFIG)
    flows = [
        make_flow(
            topo, src, dst, demand=CAPACITY_BPS / 200, duration=0.05,
            sport=1000 + i, elastic=False,
        )
        for i, (src, dst) in enumerate(PAIRS)
    ]
    for f in flows:
        engine.submit(f)
    sim.run(until=2.0)
    engine.finish()
    return {i for i, flow in enumerate(flows) if flow.bytes_delivered > 0}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        programs(range(1, 6), MATCHES, ADDRESSES, meters=False),
        min_size=3,
        max_size=3,
    )
)
def test_both_engines_deliver_the_same_flows(switch_programs):
    assert _delivering(FlowLevelEngine, switch_programs) == _delivering(
        PacketLevelEngine, switch_programs
    )
