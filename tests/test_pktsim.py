"""Packet-level baseline tests: delivery, queues, AIMD, CBR, meters."""

import pytest

from repro.core import Horse
from repro.core.config import HorseConfig
from repro.flowsim import FlowLevelEngine, FlowState
from repro.flowsim.flow import Terminal
from repro.net.generators import linear
from repro.openflow import (
    ApplyActions,
    Drop,
    DropBand,
    GotoTable,
    Match,
    MeterInstruction,
    Output,
    ToController,
    attach_pipeline,
)
from repro.openflow.messages import PacketInReason
from repro.pktsim import PacketLevelEngine, Packet
from repro.pktsim.queues import OutputQueue
from repro.sim import Simulator

from workloads import make_flow


class TestDelivery:
    def test_single_tcp_flow_completes(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=8e6, size=500_000)
        engine.submit(flow)
        sim.run(until=30.0)
        assert flow.state is FlowState.COMPLETED
        assert flow.bytes_delivered >= 500_000
        # Ideal time at 10 Mb/s is 0.4 s; slow start costs some extra.
        assert 0.4 <= flow.flow_completion_time < 3.0

    def test_fct_close_to_ideal_for_uncongested_flow(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=8e6, size=2_000_000)
        engine.submit(flow)
        sim.run(until=60.0)
        ideal = 2_000_000 * 8 / 10e6
        assert flow.flow_completion_time == pytest.approx(ideal, rel=0.5)

    def test_cbr_flow_sends_at_demand(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, duration=2.0,
                         elastic=False)
        engine.submit(flow)
        sim.run(until=10.0)
        expected = 4e6 * 2 / 8
        assert flow.bytes_sent == pytest.approx(expected, rel=0.02)
        assert flow.bytes_delivered == pytest.approx(expected, rel=0.02)

    def test_cbr_volume_flow_completes_on_send(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, size=100_000,
                         elastic=False)
        engine.submit(flow)
        sim.run(until=10.0)
        assert flow.state is FlowState.COMPLETED

    def test_no_rules_packets_policy_dropped(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, duration=0.1,
                         elastic=False)
        engine.submit(flow)
        sim.run(until=1.0)
        assert engine.stats["drops_policy"] > 0
        assert flow.bytes_delivered == 0


class TestCongestion:
    def test_two_tcp_flows_share_roughly_fairly(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        f1 = make_flow(line2, "h1", "h2", demand=10e6, size=2_000_000)
        f2 = make_flow(line2, "h1", "h2", demand=10e6, size=2_000_000,
                       sport=1001)
        for f in [f1, f2]:
            engine.submit(f)
        sim.run(until=60.0)
        t1 = f1.bytes_delivered * 8 / f1.flow_completion_time
        t2 = f2.bytes_delivered * 8 / f2.flow_completion_time
        assert 0.3 < t1 / t2 < 3.0  # AIMD approximate fairness
        assert engine.stats["drops_congestion"] > 0

    def test_cbr_overload_drops_at_queue(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=20e6, duration=1.0,
                         elastic=False)
        engine.submit(flow)
        sim.run(until=5.0)
        # ~half the offered load exceeds the 10 Mb/s line.
        assert engine.stats["drops_congestion"] > 0
        assert flow.bytes_delivered < flow.bytes_sent
        assert flow.bytes_delivered == pytest.approx(10e6 * 1 / 8, rel=0.15)


class TestPolicies:
    def test_blackhole_gives_no_loss_feedback(self, line2, install_path):
        install_path(line2, "h1", "h2")
        line2.switch("s2").pipeline.install(
            Match(), (ApplyActions((Drop(),)),), priority=100
        )
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=8e6, size=1_000_000)
        engine.submit(flow)
        sim.run(until=5.0)
        # TCP stalls after its initial window: few packets, zero delivered.
        assert flow.bytes_delivered == 0
        assert engine.stats["drops_policy"] > 0
        assert flow.state is FlowState.ACTIVE  # never completes

    def test_meter_token_bucket_drops(self, line2, install_path):
        pipeline = line2.switch("s1").pipeline
        pipeline.meters.add(1, [DropBand(rate_bps=2e6, burst_bits=3e4)])
        pipeline.install(Match(), (GotoTable(1),), priority=0, table_id=0)
        pipeline.install(
            Match(ip_dst=line2.host("h2").ip),
            (MeterInstruction(1), GotoTable(1)),
            priority=10,
            table_id=0,
        )
        line2.switch("s2").pipeline.install(
            Match(), (GotoTable(1),), priority=0, table_id=0
        )
        dst = line2.host("h2")
        for name, nxt in (("s1", "s2"), ("s2", "h2")):
            out = line2.egress_port(name, nxt)
            line2.switch(name).pipeline.install(
                Match(ip_dst=dst.ip),
                (ApplyActions((Output(out.number),)),),
                priority=10,
                table_id=1,
            )
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=8e6, duration=2.0,
                         elastic=False)
        engine.submit(flow)
        sim.run(until=10.0)
        assert engine.stats["drops_meter"] > 0
        # Goodput capped near the 2 Mb/s meter rate.
        assert flow.bytes_delivered == pytest.approx(2e6 * 2 / 8, rel=0.25)


@pytest.mark.parametrize("max_hops, delivered", [(3, True), (2, False)])
def test_hop_guard_counts_switches_like_the_flow_engine(
    install_path, max_hops, delivered
):
    """h1 -> h3 crosses three switches: both engines deliver it under a
    three-switch hop guard and neither under a two-switch one (found by
    ``tests/diff/test_cross_engine_rules.py``: the packet engine counted
    the host uplink as a hop)."""
    topo = linear(3, hosts_per_switch=1)
    for switch in topo.switches:
        attach_pipeline(switch)
    install_path(topo, "h1", "h3")
    config = HorseConfig(max_hops=max_hops)
    for engine_cls in (FlowLevelEngine, PacketLevelEngine):
        flow = make_flow(topo, "h1", "h3", demand=1e6, duration=0.05, elastic=False)
        sim = Simulator()
        engine_cls(sim, topo, None, config).submit(flow)
        sim.run(until=1.0)
        assert (flow.bytes_delivered > 0) is delivered, engine_cls.name


def test_a_packet_lost_in_flight_is_dropped():
    """A packet on the wire when its link is cut is a drop: it counts in
    the flow's dropped bytes and gives the source loss feedback, so the
    AIMD window gets its slot back.  It used to be neither delivered
    nor dropped (1 500 bytes missing from the flow's balance)."""
    topo = linear(2, hosts_per_switch=1, capacity_bps=10e6)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine="hybrid", hybrid={"select": "all"}),
    )
    flow = make_flow(topo, "h1", "h2", demand=10e6, size=2_000_000)
    horse.submit_flows([flow])
    horse.fail_link(0.5, "s1", "s2")
    horse.restore_link(0.6, "s1", "s2")
    horse.run(until=5.0)
    foreground = horse.engine.foreground
    assert foreground.stats["drops_congestion"] == 1  # the one on the wire
    assert flow.bytes_sent == flow.bytes_delivered + flow.bytes_dropped
    # The flow still stalls after the cut: the packets s1 dropped while
    # the link was down are policy drops, which give no loss feedback.
    assert foreground.transports[flow.flow_id].in_flight == foreground.stats[
        "drops_policy"
    ]


class _PacketOutTo:
    """A synchronous control plane that answers every packet-in with a
    packet-out to one port."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.packet_ins = []

    def deliver_packet_in(self, message):
        self.packet_ins.append(message)
        return [self.port]


class _InstallOnPunt:
    """A synchronous control plane that answers every packet-in by
    installing one rule on a pipeline, with no packet-out."""

    def __init__(self, pipeline, match, instructions) -> None:
        self.rule = (pipeline, match, instructions)

    def deliver_packet_in(self, message):
        pipeline, match, instructions = self.rule
        pipeline.install(match, instructions, priority=10)
        return []


def _run(engine_cls, topo, flow, control=None):
    sim = Simulator()
    engine = engine_cls(sim, topo, control)
    engine.submit(flow)
    sim.run(until=1.0)
    return engine


class TestPuntProtocol:
    """What a switch does with a miss or a punt is one protocol
    (``Engine._resolve_punt``): each case asserts both leaf engines."""

    def test_bare_miss_drops_in_both_engines(self, line2):
        one_packet = dict(demand=1e6, size=1000, elastic=False)
        fluid = make_flow(line2, "h1", "h2", **one_packet)
        flow_engine = _run(FlowLevelEngine, line2, fluid)
        assert fluid.route.terminal is Terminal.NO_MATCH
        assert flow_engine.stats["packet_ins"] == 0
        packet = make_flow(line2, "h1", "h2", **one_packet)
        packets = _run(PacketLevelEngine, line2, packet)
        assert packets.stats["packet_ins"] == 0
        assert packets.stats["drops_policy"] == 1

    @pytest.mark.parametrize("engine", ["flow", "packet"])
    def test_learning_charges_the_table_miss_entry(self, engine):
        """Synchronous learning: every packet-in is a table-miss match,
        also when the controller's new rule forwards the re-process."""
        topo = linear(2, hosts_per_switch=1)
        horse = Horse(
            topo,
            policies={"forwarding": "learning"},
            config=HorseConfig(engine=engine),
        )
        # h1 -> h2 floods and teaches both switches h1; h2 -> h1 then
        # finds h1 known, so its punts install a rule and forward.
        forward = make_flow(topo, "h1", "h2", demand=1e6, duration=0.1, elastic=False)
        reverse = make_flow(
            topo, "h2", "h1", demand=1e6, duration=0.1, start=0.2, elastic=False
        )
        horse.submit_flows([forward, reverse])
        stats = horse.run(until=1.0).engine_summary
        misses = [
            entry
            for switch in topo.switches
            for entry in switch.pipeline.table(0)
            if entry.priority == 0
        ]
        assert stats["packet_ins"] > 0
        assert all(entry.packet_count > 0 for entry in misses)
        if engine == "packet":
            assert sum(e.packet_count for e in misses) == stats["packet_ins"]
        else:
            assert misses[1] in reverse.route.entries  # s2, the punting pass

    def test_the_punting_pass_is_charged_meters_included(self):
        """A metered punt answered by a rule install: the meter the
        traffic passed before the punt applies in both engines (the
        packet engine used to meter only the re-process)."""
        for engine_cls in (FlowLevelEngine, PacketLevelEngine):
            topo = linear(2, hosts_per_switch=1)
            s1, s2 = (attach_pipeline(s) for s in topo.switches)
            s1.meters.add(1, [DropBand(rate_bps=1e3, burst_bits=8.0)])
            s1.install(Match(), (MeterInstruction(1), ApplyActions((ToController(),))))
            toward_h2 = Match(ip_dst=topo.host("h2").ip)
            to_h2 = topo.egress_port("s2", "h2").number
            s2.install(toward_h2, (ApplyActions((Output(to_h2),)),))
            # s1 forwards once the controller has installed this.
            forward = (ApplyActions((Output(topo.egress_port("s1", "s2").number),)),)
            control = _InstallOnPunt(s1, toward_h2, forward)
            flow = make_flow(topo, "h1", "h2", demand=1e6, size=1000, elastic=False)
            engine = _run(engine_cls, topo, flow, control)
            if engine_cls is FlowLevelEngine:
                assert flow.route.meter_ids == [(topo.switch("s1").dpid, 1)]
            else:
                assert engine.stats["drops_meter"] == 1

    def test_packet_out_decides_a_punt_and_drop(self, line2, install_path):
        """A ``ToController, Drop`` rule answered with a packet-out: the
        packet-out's fate is the reply's, so the flow is delivered."""
        install_path(line2, "h1", "h2")
        line2.switch("s1").pipeline.install(
            Match(), (ApplyActions((ToController(), Drop())),), priority=100
        )
        toward_s2 = line2.egress_port("s1", "s2").number
        for engine_cls in (FlowLevelEngine, PacketLevelEngine):
            control = _PacketOutTo(toward_s2)
            flow = make_flow(line2, "h1", "h2", demand=1e6, duration=0.1, elastic=False)
            _run(engine_cls, line2, flow, control)
            assert control.packet_ins
            assert {m.reason for m in control.packet_ins} == {PacketInReason.ACTION}
            assert flow.bytes_delivered > 0, engine_cls.name


class TestQueueMechanics:
    def test_queue_serializes_at_line_rate(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        uplink = line2.host("h1").uplink_port
        direction = uplink.link.direction_from(uplink)
        queue = engine.queue_for(direction)
        delivered = []
        queue.on_arrival = lambda pkt, port: delivered.append(sim.now)
        from repro.openflow import HeaderFields

        for i in range(3):
            queue.enqueue(Packet(headers=HeaderFields(), size_bytes=12500,
                                 flow_id=1, src="h1", dst="h2"))
        sim.run()
        # 12500 B at 10 Mb/s = 10 ms each, back to back.
        assert delivered == pytest.approx([0.01, 0.02, 0.03], rel=1e-3)

    def test_queue_tail_drop(self, line2):
        from repro.openflow import HeaderFields

        sim = Simulator()
        engine = PacketLevelEngine(
            sim, line2, config=HorseConfig(queue_capacity_packets=2)
        )
        uplink = line2.host("h1").uplink_port
        direction = uplink.link.direction_from(uplink)
        queue = engine.queue_for(direction)
        results = [
            queue.enqueue(Packet(headers=HeaderFields(), size_bytes=1500,
                                 flow_id=1, src="h1", dst="h2"))
            for _ in range(5)
        ]
        # First starts transmitting, two queue, rest dropped.
        assert results == [True, True, True, False, False]
        assert queue.dropped == 2
        assert direction.src_port.tx_dropped == 2

    def test_queue_utilization_measure(self, line2):
        from repro.openflow import HeaderFields

        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        uplink = line2.host("h1").uplink_port
        queue = engine.queue_for(uplink.link.direction_from(uplink))
        queue.enqueue(Packet(headers=HeaderFields(), size_bytes=12500,
                             flow_id=1, src="h1", dst="h2"))
        sim.run()
        # Busy 10 ms out of 10 ms+delay total.
        assert queue.utilization(now=0.01) == pytest.approx(1.0, rel=1e-3)
        assert 0.4 < queue.utilization(now=0.02) < 0.6

    def test_multicast_copies_each_count_their_own_hops(self, star4):
        """A packet output on two ports: the copy for the second port is
        cloned after the first copy started on the wire, and must not
        carry that copy's hop or delay."""
        s1 = star4.switch("s1")
        ports = [star4.egress_port("s1", name).number for name in ("h2", "h3")]
        s1.pipeline.install(
            Match(), (ApplyActions(tuple(Output(n) for n in ports)),)
        )
        sim = Simulator()
        engine = PacketLevelEngine(sim, star4)
        seen = {}
        forward = engine._on_packet_arrival

        def record(packet, dst_port):
            seen[dst_port.node.name] = (packet.hops, packet.accumulated_delay)
            forward(packet, dst_port)

        engine._on_packet_arrival = record
        engine.submit(make_flow(star4, "h1", "h2", demand=1e6, size=1000,
                                elastic=False))
        sim.run(until=1.0)
        assert seen["h2"] == seen["h3"]
        assert seen["h2"][0] == 2

    def test_submit_validation(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, size=1000)
        engine.submit(flow)
        with pytest.raises(Exception):
            engine.submit(flow)
