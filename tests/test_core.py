"""Horse façade tests: engine selection, policy wiring, results."""

import pytest

from repro import Flow, Horse, HorseConfig, TrafficMatrix
from repro.errors import ExperimentError
from repro.net.generators import full_mesh, single_switch, tree
from repro.openflow.headers import tcp_flow


def flow_between(topo, src, dst, **kw):
    s, d = topo.host(src), topo.host(dst)
    sport = kw.pop("sport", 1000)
    defaults = dict(demand_bps=1e6, size_bytes=100_000)
    defaults.update(kw)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, 80),
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
