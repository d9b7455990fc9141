"""Flow-level engine tests: fluid dynamics, routing, failures, meters."""

import pytest

from repro.core.config import HorseConfig
from repro.flowsim import FlowLevelEngine, FlowState, Terminal
from repro.openflow import (
    ApplyActions,
    Drop,
    DropBand,
    GotoTable,
    Match,
    MeterInstruction,
    Output,
)
from repro.sim import Simulator

from workloads import make_flow


class TestFluidDynamics:
    def test_single_flow_runs_at_demand(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, size=1_000_000)
        engine.submit(flow)
        sim.run()
        # 1 MB at 4 Mbps = 2 s
        assert flow.state is FlowState.COMPLETED
        assert flow.end_time == pytest.approx(2.0)
        assert flow.bytes_delivered == pytest.approx(1_000_000)

    def test_two_flows_share_bottleneck_hand_computed(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        f1 = make_flow(line2, "h1", "h2", demand=8e6, size=10_000_000)
        f2 = make_flow(line2, "h1", "h2", demand=8e6, size=5_000_000,
                       start=1.0, sport=1001)
        engine.submit_all([f1, f2])
        sim.run()
        # Worked out by hand: see DESIGN.md E3 notes.
        assert f2.end_time == pytest.approx(9.0)
        assert f1.end_time == pytest.approx(13.0)

    def test_demand_limited_flow_leaves_headroom(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        small = make_flow(line2, "h1", "h2", demand=2e6, duration=10.0)
        big = make_flow(line2, "h1", "h2", demand=100e6, duration=10.0, sport=1001)
        engine.submit_all([small, big])
        sim.run(until=5.0)
        assert small.rate_bps == pytest.approx(2e6)
        assert big.rate_bps == pytest.approx(8e6)

    def test_duration_flow_ends_on_time(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, duration=3.0)
        engine.submit(flow)
        sim.run()
        engine.finish()
        assert flow.state is FlowState.ENDED
        assert flow.end_time == pytest.approx(3.0)
        assert flow.bytes_sent == pytest.approx(4e6 * 3 / 8, rel=1e-6)

    def test_completion_rate_changes_reproject(self, line2, install_path):
        """A flow slowed mid-life completes later than first projected."""
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        f1 = make_flow(line2, "h1", "h2", demand=10e6, size=2_500_000)
        # Alone, f1 would finish at t=2.0; f2 halves its rate at t=1.
        f2 = make_flow(line2, "h1", "h2", demand=10e6, duration=10.0,
                       start=1.0, sport=1001)
        engine.submit_all([f1, f2])
        sim.run()
        # f1: 1 s at 10 Mb/s (1.25 MB) + 1.25 MB at 5 Mb/s = 2 s more.
        assert f1.end_time == pytest.approx(3.0)

    def test_inelastic_flow_records_drops(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        udp = make_flow(line2, "h1", "h2", demand=20e6, duration=2.0,
                        elastic=False)
        engine.submit(udp)
        sim.run()
        engine.finish()
        # Offered 20 Mb/s over a 10 Mb/s link for 2 s: half is dropped.
        assert udp.bytes_dropped == pytest.approx(10e6 * 2 / 8, rel=1e-6)

    def test_stop_flow(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, duration=100.0)
        engine.submit(flow)
        sim.call_at(1.0, lambda s: engine.stop_flow(flow))
        sim.run(until=5.0)
        assert flow.state is FlowState.ENDED
        assert flow.end_time == pytest.approx(1.0)


class TestRoutingOutcomes:
    def test_no_rules_means_no_match(self, line2):
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, size=1000)
        engine.submit(flow)
        sim.run(until=1.0)
        assert flow.route.terminal is Terminal.NO_MATCH
        assert not flow.delivered
        assert engine.stats["undelivered"] == 1

    def test_blackholed_flow_burns_upstream_links(self, line2, install_path):
        install_path(line2, "h1", "h2")
        # Drop at s2, higher priority than forwarding.
        line2.switch("s2").pipeline.install(
            Match(), (ApplyActions((Drop(),)),), priority=100
        )
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, duration=2.0)
        engine.submit(flow)
        sim.run()
        engine.finish()
        assert flow.route.terminal is Terminal.BLACKHOLED
        # Link h1->s1 and s1->s2 carried the traffic; s2->h2 did not.
        s1s2 = line2.link_between("s1", "s2")
        s2h2 = line2.link_between("s2", "h2")
        assert s1s2.port_a.tx_bytes + s1s2.port_b.tx_bytes > 0
        assert s2h2.port_a.tx_bytes + s2h2.port_b.tx_bytes == 0
        assert flow.bytes_sent > 0 and flow.bytes_delivered == 0

    def test_meter_on_path_caps_rate(self, line2, install_path):
        # Table 0: meter then goto table 1; forwarding lives in table 1.
        for name in ("s1", "s2"):
            pipeline = line2.switch(name).pipeline
            pipeline.install(Match(), (GotoTable(1),), priority=0, table_id=0)
        pipeline = line2.switch("s1").pipeline
        pipeline.meters.add(1, [DropBand(rate_bps=3e6)])
        pipeline.install(
            Match(ip_dst=line2.host("h2").ip),
            (MeterInstruction(1), GotoTable(1)),
            priority=10,
            table_id=0,
        )
        # Forwarding in table 1.
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
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=8e6, size=3_000_000)
        engine.submit(flow)
        sim.run()
        # 3 MB at 3 Mb/s (metered) = 8 s.
        assert flow.end_time == pytest.approx(8.0)

    def test_loop_guard_terminates(self):
        """A forwarding ring (s1->s2->s3->s1) must not hang the walk."""
        from repro.net import Topology
        from repro.openflow import attach_pipeline

        topo = Topology()
        switches = [topo.add_switch(f"s{i + 1}") for i in range(3)]
        h1 = topo.add_host("h1")
        topo.add_link(h1, switches[0])
        topo.add_link(switches[0], switches[1])
        topo.add_link(switches[1], switches[2])
        topo.add_link(switches[2], switches[0])
        topo.add_host("h2")  # exists but never connected to the ring exit
        topo.add_link("h2", switches[1])
        for s in switches:
            attach_pipeline(s)
        # Ring rules: each switch forwards to the next switch only.
        for current, nxt in zip(switches, switches[1:] + switches[:1]):
            out = topo.egress_port(current, nxt)
            current.pipeline.install(
                Match(), (ApplyActions((Output(out.number),)),)
            )
        sim = Simulator()
        engine = FlowLevelEngine(sim, topo, config=HorseConfig(max_hops=10))
        flow = make_flow(topo, "h1", "h2", demand=1e6, size=1000)
        engine.submit(flow)
        sim.run(until=1.0)
        assert flow.route.terminal is Terminal.LOOPED

    def test_colliding_header_hashes_are_not_a_loop(self, line2):
        """s2 tags the traffic and bounces it off s1, so the walk reaches
        (s2, port from s1) twice: untagged, then tagged.  Different
        headers are different states even when their hashes collide."""
        from dataclasses import replace

        from repro.openflow import PORT_IN_PORT, HeaderFields, SetField

        class Colliding(HeaderFields):
            def __hash__(self):
                return 7

        s1, s2 = line2.switch("s1"), line2.switch("s2")
        to_s2 = line2.egress_port("s1", "s2").number
        from_s2 = line2.egress_port("s2", "s1").peer.number
        s1.pipeline.install(Match(), (ApplyActions((Output(to_s2),)),))
        s1.pipeline.install(
            Match(in_port=from_s2), (ApplyActions((Output(PORT_IN_PORT),)),),
            priority=10,
        )
        s2.pipeline.install(
            Match(),
            (ApplyActions((SetField("vlan_vid", 7), Output(PORT_IN_PORT))),),
        )
        s2.pipeline.install(
            Match(vlan_vid=7),
            (ApplyActions((Output(line2.egress_port("s2", "h2").number),)),),
            priority=10,
        )
        flow = make_flow(line2, "h1", "h2", demand=1e6, size=1000)
        plain = flow.headers
        flow.headers = Colliding(
            **{name: getattr(plain, name) for name in HeaderFields.__slots__}
        )
        assert hash(flow.headers) == hash(replace(flow.headers, vlan_vid=7))
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        engine.submit(flow)
        sim.run()
        assert flow.route.terminal is Terminal.DELIVERED
        assert flow.state is FlowState.COMPLETED


class TestLinkFailures:
    def _build_mesh(self):
        from repro.net import Topology
        from repro.openflow import attach_pipeline
        from repro.control import ControlChannel, Controller
        from repro.control.apps import ShortestPathApp

        from repro.net.generators import full_mesh

        topo = full_mesh(3, hosts_per_switch=1)
        for s in topo.switches:
            attach_pipeline(s)
        sim = Simulator()
        controller = Controller()
        controller.add_app(ShortestPathApp(match_on="ip_dst"))
        channel = ControlChannel(sim, topo, controller=controller)
        engine = FlowLevelEngine(sim, topo, control=channel)
        channel.connect_engine(engine)
        controller.start()
        return topo, sim, engine

    def test_failure_triggers_reroute_via_controller(self):
        topo, sim, engine = self._build_mesh()
        flow = make_flow(topo, "h1", "h2", demand=1e6, duration=10.0)
        engine.submit(flow)
        engine.fail_link_at(2.0, "s1", "s2")
        sim.run()
        engine.finish()
        assert flow.reroutes >= 1
        assert flow.delivered
        # Final route goes the long way round (4 links, not 3).
        assert len(flow.route.directions) == 4
        assert flow.state is FlowState.ENDED

    def test_recovery_restores_short_path(self):
        topo, sim, engine = self._build_mesh()
        flow = make_flow(topo, "h1", "h2", demand=1e6, duration=10.0)
        engine.submit(flow)
        engine.fail_link_at(2.0, "s1", "s2")
        engine.restore_link_at(5.0, "s1", "s2")
        sim.run()
        engine.finish()
        assert len(flow.route.directions) == 3
        assert flow.delivered

    def test_port_status_sent_to_controller(self):
        topo, sim, engine = self._build_mesh()
        controller = engine.control.controller
        engine.fail_link_at(1.0, "s1", "s2")
        sim.run(until=2.0)
        assert controller.stats["port_status"] == 2  # both endpoints


class TestStatisticsAccrual:
    def test_port_counters_match_flow_bytes(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, size=1_000_000)
        engine.submit(flow)
        sim.run()
        engine.finish()
        uplink = line2.host("h1").uplink_port
        assert uplink.tx_bytes == pytest.approx(1_000_000, abs=2)
        h2_port = line2.host("h2").uplink_port
        assert h2_port.rx_bytes == pytest.approx(1_000_000, abs=2)

    def test_entry_counters_accrue(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, size=1_000_000)
        engine.submit(flow)
        sim.run()
        engine.finish()
        entry = line2.switch("s1").pipeline.table(0).entries[0]
        assert entry.byte_count == pytest.approx(1_000_000, abs=2)
        assert entry.packet_count > 0

    def test_sync_statistics_is_idempotent(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=4e6, duration=4.0)
        engine.submit(flow)
        sim.run(until=2.0)
        engine.sync_statistics()
        first = flow.bytes_sent
        engine.sync_statistics()
        assert flow.bytes_sent == first
        assert first == pytest.approx(4e6 * 2 / 8, rel=1e-6)

    def test_observers_see_lifecycle(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        events = []
        engine.observers.append(lambda name, f: events.append(name))
        flow = make_flow(line2, "h1", "h2", demand=4e6, size=1000)
        engine.submit(flow)
        sim.run()
        assert events[0] == "delivered" or events[0] == "arrival"
        assert "completed" in events

    def test_summary_shape(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        engine.submit(make_flow(line2, "h1", "h2", demand=1e6, size=1000))
        sim.run()
        summary = engine.summary()
        assert summary["completed"] == 1
        assert summary["total_flows"] == 1
        assert summary["bytes_delivered"] >= 1000


class TestSubmitValidation:
    def test_double_submit_rejected(self, line2):
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        flow = make_flow(line2, "h1", "h2", demand=1e6, size=1000)
        engine.submit(flow)
        with pytest.raises(Exception):
            engine.submit(flow)

    def test_past_start_rejected(self, line2):
        sim = Simulator()
        sim.call_at(5.0, lambda s: None)
        sim.run()
        engine = FlowLevelEngine(sim, line2)
        with pytest.raises(Exception):
            engine.submit(make_flow(line2, "h1", "h2", demand=1e6, size=1000))

    def test_flow_validation(self, line2):
        with pytest.raises(ValueError):
            make_flow(line2, "h1", "h2", demand=0, size=1000)
        with pytest.raises(ValueError, match="demand"):
            make_flow(line2, "h1", "h2", demand=float("nan"), size=1000)
        with pytest.raises(ValueError):
            make_flow(line2, "h1", "h2", demand=1e6, size=0)
        with pytest.raises(ValueError):
            make_flow(line2, "h1", "h2", demand=1e6, size=100, duration=1.0)
