"""Horse façade tests: engine selection, policy wiring, results."""

import pytest

from repro import Flow, Horse, HorseConfig, TrafficMatrix
from repro.errors import ExperimentError
from repro.net.generators import full_mesh, single_switch, tree
from repro.openflow.headers import tcp_flow
from repro.openflow.messages import PacketIn


def flow_between(topo, src, dst, **kw):
    s, d = topo.host(src), topo.host(dst)
    sport = kw.pop("sport", 1000)
    macs = dict(eth_src=s.mac, eth_dst=d.mac) if kw.pop("macs", False) else {}
    defaults = dict(demand_bps=1e6, size_bytes=100_000)
    defaults.update(kw)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, 80, **macs),
        src=src,
        dst=dst,
        **defaults,
    )


class TestFacade:
    def test_flow_engine_end_to_end(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        horse.submit_flows([flow_between(topo, "h1", "h4")])
        result = horse.run()
        assert result.row()["completed"] == 1
        assert result.delivered_fraction == 1.0
        assert result.rule_count > 0
        assert result.wall_time_s > 0

    def test_packet_engine_end_to_end(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
            config=HorseConfig(engine="packet"),
        )
        horse.submit_flows([flow_between(topo, "h1", "h4", demand_bps=8e6)])
        result = horse.run(until=60.0)
        assert result.row()["completed"] == 1

    def test_pipeline_tables_sized_for_policies(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={
                "forwarding": "shortest-path",
                "rate_limiting": [{"src": "h1", "dst": "h4", "rate": "1 Mbps"}],
            },
        )
        assert len(topo.switches[0].pipeline.tables) == 2

    def test_submit_matrix(self):
        topo = single_switch(4, capacity_bps=1e9)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        tm = TrafficMatrix.uniform([h.name for h in topo.hosts], 12e6)
        flows = horse.submit_matrix(tm, horizon_s=2.0)
        assert flows
        result = horse.run(until=30.0)
        assert result.row()["completed"] > 0

    def test_constant_rate_matrix(self):
        topo = single_switch(3, capacity_bps=1e9)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        tm = TrafficMatrix.uniform([h.name for h in topo.hosts], 6e6)
        flows = horse.submit_matrix(tm, horizon_s=2.0, constant_rate=True)
        assert len(flows) == 6
        result = horse.run()
        assert result.sim_time_s == pytest.approx(2.0)

    def test_link_failure_injection(self):
        topo = full_mesh(3, hosts_per_switch=1)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        flow = flow_between(topo, "h1", "h2", size_bytes=None, duration_s=6.0)
        horse.submit_flows([flow])
        horse.fail_link(2.0, "s1", "s2")
        horse.restore_link(4.0, "s1", "s2")
        result = horse.run()
        assert flow.reroutes >= 2
        assert result.delivered_fraction == 1.0

    def test_monitoring_enabled_via_config(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
            config=HorseConfig(telemetry={"monitor_interval_s": 1.0}),
        )
        horse.submit_flows(
            [flow_between(topo, "h1", "h4", size_bytes=None, duration_s=3.0)]
        )
        result = horse.run()
        assert result.monitor_samples

    def test_packet_engine_rejects_failure_injection(self):
        topo = tree(2, 2)
        horse = Horse(topo, config=HorseConfig(engine="packet"))
        with pytest.raises(ExperimentError):
            horse.fail_link(1.0, "s1", "s2")

    def test_policies_and_controller_mutually_exclusive(self):
        from repro.control import Controller

        topo = tree(2, 2)
        with pytest.raises(ExperimentError):
            Horse(topo, policies={}, controller=Controller())

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            HorseConfig(engine="quantum")
        with pytest.raises(ExperimentError):
            HorseConfig(control_latency_s=-1)
        with pytest.raises(ExperimentError):
            HorseConfig(pipeline_tables=0)

    def test_result_throughput_and_fairness(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        horse.submit_flows(
            [
                flow_between(topo, "h1", "h4", demand_bps=2e6),
                flow_between(topo, "h2", "h3", demand_bps=2e6, sport=1001),
            ]
        )
        result = horse.run()
        assert result.fairness() == pytest.approx(1.0, abs=0.01)
        assert result.goodput_bps() > 0
        assert set(result.fct_summary()) >= {"count", "mean", "p99"}

    def test_control_latency_blocks_then_unblocks_reactive_flows(self):
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": "learning"},
            config=HorseConfig(control_latency_s=0.1),
        )
        flow = flow_between(topo, "h1", "h4")
        horse.submit_flows([flow])
        result = horse.run(until=30.0)
        # With asynchronous control the flow is briefly blocked, then the
        # installed rules deliver it.
        assert flow.delivered
        assert result.engine_summary["packet_ins"] >= 1

    @pytest.mark.parametrize("elastic", [False, True])
    def test_control_latency_releases_parked_packets(self, elastic):
        """The packet engine parks a punted packet until the delayed
        packet-out comes back; the channel has to know the engine to
        hand it over."""
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": "learning"},
            config=HorseConfig(engine="packet", control_latency_s=0.1),
        )
        horse.submit_flows([flow_between(topo, "h1", "h4", elastic=elastic)])
        summary = horse.run(until=30.0).engine_summary
        assert not any(horse.engine._buffered.values())
        assert summary["bytes_delivered"] > 0
        assert summary["bytes_sent"] == (
            summary["bytes_delivered"] + summary["bytes_dropped"]
        )

    def test_entry_expiry_runs_on_the_packet_engine(self):
        from repro.control.apps import L2LearningApp
        from repro.control.controller import Controller

        topo = tree(2, 2)
        controller = Controller()
        controller.add_app(L2LearningApp(idle_timeout=1.0))
        horse = Horse(
            topo,
            controller=controller,
            config=HorseConfig(engine="packet", entry_expiry_interval_s=0.5),
        )
        # Both directions, so each switch learns the other side's MAC
        # and installs forwarding rules; 100 kB at 1 Mb/s ends by 0.9 s.
        horse.submit_flows(
            [
                flow_between(topo, "h1", "h4", macs=True),
                flow_between(
                    topo, "h4", "h1", macs=True, sport=1001, start_time=0.01
                ),
            ]
        )
        horse.run(until=1.0)
        table_miss_rules = len(topo.switches)
        assert controller.rule_count() > table_miss_rules
        assert controller.stats["flow_removed"] == 0
        horse.run(until=5.0)
        assert controller.rule_count() == table_miss_rules
        assert controller.stats["flow_removed"] > 0


@pytest.mark.parametrize("kind", ["flow", "packet", "hybrid"])
def test_engine_contract(kind):
    """What Horse and the channel rely on, on every engine (see
    repro.sim.engine.Engine)."""
    from repro.errors import SimulationError
    from repro.sim.engine import Engine

    topo = tree(2, 2)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine=kind, hybrid={"select": "all"}),
    )
    engine = horse.engine
    assert isinstance(engine, Engine)
    assert engine in horse.channel.engines

    flow = flow_between(topo, "h1", "h4")
    assert horse.submit_flows([flow]) == [flow]
    with pytest.raises(SimulationError, match="submitted twice"):
        engine.submit(flow)
    horse.run(until=0.5)
    with pytest.raises(SimulationError, match="before now"):
        engine.submit(flow_between(topo, "h2", "h3", start_time=0.1))

    assert {"total_flows", "bytes_sent", "bytes_delivered", "bytes_dropped"} <= set(
        engine.summary()
    )
    assert engine.summary()["total_flows"] == 1
    assert engine.engine_stats()["engine"] == kind

    # Hooks only some engines act on are callable on all of them.
    engine.finalize()
    engine.notify_rules_changed(topo.switches[0].dpid)
    engine.sync_statistics(horse.sim.now)
    engine.apply_packet_out(
        PacketIn(dpid=topo.switches[0].dpid, in_port=1, flow_id=None), []
    )
    engine.enable_entry_expiry(1.0)
    engine.finish()

    if kind == "packet":
        with pytest.raises(ExperimentError, match="needs the flow engine"):
            horse.fail_link(1.0, "s1", "s2")
        with pytest.raises(ExperimentError, match="needs the flow engine"):
            horse.restore_link(2.0, "s1", "s2")
    else:
        a, b = (node.name for node in topo.links[0].endpoints)
        horse.fail_link(1.0, a, b)
        horse.restore_link(2.0, a, b)
