"""Packet-level baseline tests: delivery, queues, AIMD, CBR, meters."""

import pytest

from repro.core.config import HorseConfig
from repro.flowsim import FlowState
from repro.openflow import (
    ApplyActions,
    Drop,
    DropBand,
    GotoTable,
    Match,
    MeterInstruction,
    Output,
)
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
        engine.submit_all([f1, f2])
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

    def test_submit_validation(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, size=1000)
        engine.submit(flow)
        with pytest.raises(Exception):
            engine.submit(flow)
