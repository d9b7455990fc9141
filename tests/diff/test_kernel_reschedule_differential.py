"""Differential tests: lazy rate application vs the eager reference.

A moved rate costs the flow engine its flow's own state only.  The
flow's completion timer moves only earlier (one that fires ahead of the
flow's due time re-arms there, accruing nothing), and its route's port,
entry and group counters are paid up to the flow's watermark when they
are read: by ``sync_statistics``, before a re-walk and at retire.
``reference.eager_apply`` retimes every projection with
``Simulator.reschedule`` and settles the counters after each accrual.  The two must simulate the same network bitwise: the same
per-flow tuples, the same counters read after a sync, the same stats
replies and ``FlowRemoved`` messages.  Kernel event counts are not
compared: early fires count there.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Horse, HorseConfig
from repro.control import ControlChannel, Controller
from repro.control.apps import L2LearningApp
from repro.flowsim import Flow, FlowLevelEngine
from repro.ixp import build_ixp
from repro.net.generators import fat_tree, linear
from repro.openflow import ApplyActions, Drop, Match, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.traffic import FlowGenConfig, IxpTraceSynthesizer

from .reference import eager_apply


def _flow_rows(flows):
    return [
        (
            f.state.name,
            f.end_time,
            f.bytes_sent,
            f.bytes_delivered,
            f.bytes_dropped,
            f.rate_bps,
            tuple(d.key for d in f.route.directions) if f.route else (),
        )
        for f in flows
    ]


def _counters(topology):
    """Every port, entry (with ``last_used``) and group bucket counter;
    read after a sync."""
    ports = [
        (node.name, number, port.tx_bytes, port.tx_packets, port.rx_bytes,
         port.rx_packets)
        for node in topology.nodes
        for number, port in sorted(node.ports.items())
    ]
    entries, groups = [], []
    for switch in topology.switches:
        for table in switch.pipeline.tables:
            entries += [
                (switch.name, table.table_id, repr(entry.match), entry.priority,
                 entry.byte_count, entry.packet_count, entry.last_used)
                for entry in table
            ]
        groups += [
            (switch.name, group.group_id, tuple(group.bucket_bytes))
            for group in switch.pipeline.groups.groups
        ]
    return {"ports": ports, "entries": entries, "groups": groups}


def _horse_run(horse, flows, until, flaps):
    horse.submit_flows(flows)
    for t, a, b in flaps:
        horse.fail_link(t, a, b)
        horse.restore_link(t + 0.15, a, b)
    result = horse.run(until=until)  # finish() syncs the counters
    return {
        "sim_time_s": result.sim_time_s,
        "flows": _flow_rows(flows),
        **_counters(horse.topology),
    }


def _core_flaps(topology, start=0.2, step=0.1):
    switch_names = {s.name for s in topology.switches}
    flaps, t = [], start
    for link in topology.links:
        a, b = link.endpoints[0].name, link.endpoints[1].name
        if {a, b} <= switch_names:
            flaps.append((t, a, b))
            t += step
    return flaps


def _reroute_storm(eager):
    fabric = build_ixp(8, seed=23)
    synth = IxpTraceSynthesizer(
        fabric,
        peak_total_bps=1.5e9,
        flow_config=FlowGenConfig(mean_flow_bytes=400e3, min_demand_bps=10e6),
    )
    flows = synth.steady_flows(
        RngRegistry(23).stream("diff"), duration_s=1.0, load_fraction=0.7
    )
    horse = Horse(
        fabric.topology,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine="flow", seed=23),
    )
    if eager:
        eager_apply(horse.engine)
    # A reroute storm: flap every switch-to-switch link in sequence, so
    # completion projections are torn up and re-issued over and over.
    return _horse_run(horse, flows, 30.0, _core_flaps(fabric.topology))


def test_reroute_storm_matches_eager_apply():
    assert _reroute_storm(eager=False) == _reroute_storm(eager=True)


def _ecmp_storm(eager):
    topo = fat_tree(4)
    hosts = topo.hosts
    rng = random.Random(29)
    flows = []
    for i in range(80):
        src, dst = rng.sample(hosts, 2)
        flows.append(Flow(
            headers=tcp_flow(src.ip, dst.ip, 4000 + i, 80),
            src=src.name,
            dst=dst.name,
            demand_bps=rng.choice((50e6, 200e6, 1e9)),
            size_bytes=rng.randint(500_000, 20_000_000),
            start_time=round(rng.random() * 1.0, 6),
        ))
    horse = Horse(
        topo,
        policies={"load_balancing": {"mode": "ecmp", "match_on": "ip_dst"}},
        config=HorseConfig(engine="flow", seed=29),
    )
    if eager:
        eager_apply(horse.engine)
    return _horse_run(horse, flows, 30.0, _core_flaps(topo, start=0.1, step=0.05))


def test_ecmp_group_counters_match_eager_apply():
    """SELECT groups: bucket counters settle like ports and entries."""
    lazy = _ecmp_storm(eager=False)
    assert any(sum(buckets) for _, _, buckets in lazy["groups"])
    assert lazy == _ecmp_storm(eager=True)


# ---------------------------------------------------------------------
# Hypothesis: a shared bottleneck under reactive learning with idle
# timeouts, read and swept at random instants.
# ---------------------------------------------------------------------
#: 8 Mb/s everywhere: shares of 1-8 Mb/s demands land on round rates.
CAPACITY_BPS = 8e6
#: Sizes are multiples of this (1/8 s at 1 Mb/s), so completions often
#: fall due at one instant.
SIZE_UNIT = 15_625
HORIZON_S = 4.0

flow_st = st.tuples(
    st.integers(min_value=0, max_value=5),  # source host index
    st.integers(min_value=1, max_value=5),  # destination offset
    st.sampled_from([1e6, 2e6, 4e6, 8e6]),
    st.one_of(
        st.tuples(st.just("size"), st.integers(min_value=1, max_value=24)),
        st.tuples(st.just("duration"), st.sampled_from([None, 0.25, 0.5, 1.0])),
    ),
    # Arrival gap after the previous flow: zero, on the 1/8 s grid, any,
    # or "done": the instant the previous flow completes if it has its
    # demand all along (exactly the engine's projection).
    st.one_of(st.just(0.0), st.sampled_from([0.125, 0.25, 0.5, "done"]),
              st.floats(min_value=0.0, max_value=0.6)),
)
instant_st = st.one_of(
    st.sampled_from([0.125 * k for k in range(1, 32)]),
    st.floats(min_value=0.0, max_value=HORIZON_S),
)


def _learning_flows(topo, specs):
    hosts = topo.hosts
    flows, start = [], 0.0
    for i, (src, offset, demand, (kind, extent), gap) in enumerate(specs):
        if gap != "done":
            start += gap
        elif flows and flows[-1].size_bytes is not None:
            start = flows[-1].start_time + flows[-1].size_bytes * 8.0 / flows[-1].demand_bps
        s, d = hosts[src], hosts[(src + offset) % len(hosts)]
        flows.append(Flow(
            headers=tcp_flow(s.ip, d.ip, 5000 + i, 80, eth_src=s.mac, eth_dst=d.mac),
            src=s.name,
            dst=d.name,
            demand_bps=demand,
            size_bytes=extent * SIZE_UNIT if kind == "size" else None,
            duration_s=extent if kind == "duration" else None,
            start_time=start,
            elastic=i % 3 != 2,
        ))
    return flows


def _learning_run(specs, reads, sweeps, idle_timeout, eager, drops=()):
    topo = linear(2, hosts_per_switch=3, capacity_bps=CAPACITY_BPS)
    for switch in topo.switches:
        attach_pipeline(switch, num_tables=1)
    removed = []

    class Recording(L2LearningApp):
        def on_flow_removed(self, message):
            removed.append((message.dpid, repr(message.match), message.reason.name,
                            message.duration_s, message.packet_count,
                            message.byte_count))
            super().on_flow_removed(message)

    sim = Simulator()
    controller = Controller()
    app = Recording(idle_timeout=idle_timeout)
    controller.add_app(app)
    channel = ControlChannel(sim, topo, controller=controller)
    engine = FlowLevelEngine(sim, topo, control=channel)
    if eager:
        eager_apply(engine)
    channel.connect_engine(engine)
    controller.start()
    flows = _learning_flows(topo, specs)
    for flow in flows:
        engine.submit(flow)

    replies = []
    dpids = [switch.dpid for switch in topo.switches]

    def read(s):
        for dpid in dpids:
            replies.append(("port", s.now, [
                sorted(stat.items()) for stat in channel.port_stats(dpid).stats
            ]))
            replies.append(("flow", s.now, [
                (repr(stat["match"]), stat["priority"], stat["packet_count"],
                 stat["byte_count"])
                for stat in channel.flow_stats(dpid).stats
            ]))

    for t in reads:
        sim.call_at(t, read)
    for t in sweeps:
        sim.call_at(t, lambda s: engine._expire_tick(s, s.now))
    # A blackhole rule for one host's MAC on s1: the flows towards it are
    # re-walked onto a shorter route with no stats read in between.
    for t, host in drops:
        mac = topo.hosts[host].mac
        sim.call_at(t, lambda s, mac=mac: app.add_flow(
            dpids[0], Match(eth_dst=mac), (ApplyActions((Drop(),)),), priority=100))
    sim.run(until=HORIZON_S)
    engine.finish()
    return {
        "now": sim.now,
        "flows": _flow_rows(flows),
        "replies": replies,
        "removed": removed,
        **_counters(topo),
    }


@given(
    specs=st.lists(flow_st, min_size=1, max_size=8),
    reads=st.lists(instant_st, max_size=4),
    sweeps=st.lists(instant_st, max_size=4),
    idle_timeout=st.sampled_from([0.0, 0.25, 0.5]),
    drops=st.lists(st.tuples(instant_st, st.integers(min_value=3, max_value=5)),
                   max_size=2),
)
@settings(max_examples=60, deadline=None)
# Two sized flows on the bottleneck from one instant, a third arriving
# when the first would finish alone, reads and sweeps on the grid.
@example(
    specs=[(0, 3, 8e6, ("size", 8), 0.0), (1, 3, 8e6, ("size", 8), 0.0),
           (2, 2, 4e6, ("size", 4), "done"), (0, 4, 1e6, ("duration", None), 0.0)],
    reads=[0.25, 0.5], sweeps=[0.5, 1.0], idle_timeout=0.25, drops=[(1.5, 3)],
)
def test_lazy_apply_matches_eager_apply(specs, reads, sweeps, idle_timeout, drops):
    args = (specs, reads, sweeps, idle_timeout)
    lazy = _learning_run(*args, eager=False, drops=drops)
    assert lazy == _learning_run(*args, eager=True, drops=drops)


def test_a_completion_tie_keeps_bytes_and_counters():
    """Completions due at one instant fire in eager's order.  Two
    identical flows arrive together: eager, the first one's timer is
    retimed when the second arrives and fires first; lazy, it stays
    armed for the instant the first would finish alone, fires there
    early and re-arms under the seq reserved when its due time moved,
    ahead of the second one's, so it fires first too.  Each flow's last
    rate, end time, bytes and every counter agree."""
    specs = [(0, 3, 8e6, ("size", 8), 0.0), (1, 3, 8e6, ("size", 8), 0.0),
             (2, 2, 4e6, ("size", 4), 0.25), (0, 4, 1e6, ("duration", None), 0.0)]
    args = (specs, [0.25, 0.5], [0.5, 1.0], 0.25)
    assert _learning_run(*args, eager=False) == _learning_run(*args, eager=True)


def _due_back_at_its_timer(eager):
    topo = linear(2, hosts_per_switch=2, capacity_bps=CAPACITY_BPS)
    horse = Horse(
        topo, policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}}
    )
    if eager:
        eager_apply(horse.engine)
    ip = {name: topo.host(name).ip for name in ("h1", "h2", "h3", "h4")}
    horse.submit_flows([
        Flow(headers=tcp_flow(ip[src], ip[dst], 5000 + i, 80), src=src, dst=dst,
             demand_bps=8e6, **extent)
        for i, (src, dst, extent) in enumerate((
            ("h1", "h3", {"size_bytes": 125_000}),
            ("h2", "h4", {"duration_s": 1.0}),
            ("h4", "h2", {"size_bytes": 125_000}),
        ))
    ])
    order = []
    horse.engine.observers.append(lambda name, flow: order.append((name, flow.src)))
    horse.sim.call_at(0.0, lambda s: topo.switch("s1").pipeline.install(
        Match(ip_dst=ip["h4"]), (ApplyActions((Drop(),)),), priority=100))
    horse.run(until=1.0)
    return order


def test_a_due_time_back_at_its_timer_is_restamped():
    """h1's flow is due at 0.125 s alone.  h2's flow joins its link at
    t=0 and moves its due time later, and h4's flow, due at 0.125 s on
    the reverse direction, arrives.  A drop rule installed at t=0 takes
    h2's flow off the link, and h1's due time returns exactly to the
    instant its timer waits at: the timer must be pushed again under the
    seq reserved then, behind h4's, as eager's retiming would."""
    lazy = _due_back_at_its_timer(eager=False)
    assert [src for name, src in lazy if name == "completed"] == ["h4", "h1"]
    assert lazy == _due_back_at_its_timer(eager=True)
