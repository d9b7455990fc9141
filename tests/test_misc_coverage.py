"""Edge-case coverage: queue/link corners, kernel helpers, exports."""

import pytest

from repro.core.config import HorseConfig
from repro.flowsim import Flow, FlowState
from repro.net import Topology
from repro.openflow import HeaderFields, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.pktsim import PacketLevelEngine, Packet
from repro.sim import Simulator


class TestKernelHelpers:
    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested(s):
            with pytest.raises(Exception):
                s.run()

        sim.call_at(1.0, nested)
        sim.run()


class TestPortStats:
    def test_reset_stats(self, line2):
        port = line2.host("h1").uplink_port
        port.tx_bytes = 100
        port.rx_packets = 5
        port.reset_stats()
        assert port.stats()["tx_bytes"] == 0
        assert port.stats()["rx_packets"] == 0

    def test_port_stats_shape(self, line2):
        stats = line2.host("h1").uplink_port.stats()
        assert set(stats) == {
            "port_no",
            "rx_packets",
            "tx_packets",
            "rx_bytes",
            "tx_bytes",
            "rx_dropped",
            "tx_dropped",
        }


class TestPacketEngineCorners:
    def test_duration_flow_stops_sending_at_end(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        h1, h2 = line2.host("h1"), line2.host("h2")
        flow = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
            src="h1", dst="h2", demand_bps=2e6, duration_s=1.0,
            elastic=False,
        )
        engine.submit(flow)
        sim.run(until=5.0)
        assert flow.state is FlowState.ENDED
        # Nothing sent beyond the window (2 Mb/s x 1 s = 250 KB).
        assert flow.bytes_sent <= 2e6 * 1.0 / 8 * 1.02

    def test_packet_lost_when_link_fails_midflight(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        uplink = line2.host("h1").uplink_port
        direction = uplink.link.direction_from(uplink)
        queue = engine.queue_for(direction)
        arrived = []
        queue.on_arrival = lambda pkt, port: arrived.append(pkt)
        queue.enqueue(
            Packet(headers=HeaderFields(), size_bytes=12500, flow_id=1,
                   src="h1", dst="h2")
        )
        # 12500 B at 10 Mb/s = 10 ms tx; kill the link during flight.
        sim.call_at(0.005, lambda s: uplink.link.set_up(False))
        sim.run(until=1.0)
        assert arrived == []

    def test_enqueue_on_down_link_drops(self, line2):
        sim = Simulator()
        engine = PacketLevelEngine(sim, line2)
        uplink = line2.host("h1").uplink_port
        uplink.link.set_up(False)
        queue = engine.queue_for(uplink.link.direction_from(uplink))
        ok = queue.enqueue(
            Packet(headers=HeaderFields(), size_bytes=100, flow_id=1,
                   src="h1", dst="h2")
        )
        assert not ok
        assert queue.dropped == 1

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet(headers=HeaderFields(), size_bytes=0, flow_id=1,
                   src="a", dst="b")

    def test_aimd_retransmits_lost_bytes(self, line2, install_path):
        """Congestion losses are retransmitted: delivered == size."""
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = PacketLevelEngine(
            sim, line2, config=HorseConfig(queue_capacity_packets=5)
        )
        h1, h2 = line2.host("h1"), line2.host("h2")
        flow = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
            src="h1", dst="h2", demand_bps=50e6, size_bytes=400_000,
        )
        engine.submit(flow)
        sim.run(until=60.0)
        assert flow.state is FlowState.COMPLETED
        assert flow.bytes_delivered >= 400_000
        # Losses happened (tiny queue) and were made up for.
        assert engine.stats["drops_congestion"] > 0


class TestExportsCorners:
    def test_flow_row_for_unfinished_flow(self, line2):
        from repro.stats import flow_row

        h1, h2 = line2.host("h1"), line2.host("h2")
        flow = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1, 2),
            src="h1", dst="h2", demand_bps=1e6, size_bytes=100,
        )
        row = flow_row(flow)
        assert row["state"] == "pending"
        assert row["fct_s"] is None
        assert row["terminal"] is None

    def test_summary_text_includes_notes(self, line2):
        from repro import Horse
        from repro.stats import summary_text

        horse = Horse(line2, policies={})  # triggers the default note
        result = horse.run(until=0.1)
        text = summary_text(result)
        assert "notes" in text
        assert "shortest-path" in text


class TestTopologyCorners:
    def test_direction_key_is_stable(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        link = topo.add_link(a, b)
        d = link.direction_from(a.port(1))
        assert d.key == ("a", 1, "b", 1)

    def test_pipeline_table_size_cap_via_attach(self):
        topo = Topology()
        switch = topo.add_switch("s1")
        pipeline = attach_pipeline(switch, table_size=1)
        from repro.openflow import ApplyActions, Match, Output
        from repro.errors import TableFullError

        pipeline.install(Match(tp_dst=1), (ApplyActions((Output(1),)),))
        with pytest.raises(TableFullError):
            pipeline.install(Match(tp_dst=2), (ApplyActions((Output(1),)),))
