"""Cross-subsystem integration scenarios.

Each test wires several subsystems together the way a user would and
checks system-level invariants: conservation of bytes, counter
symmetry, engine agreement on policy outcomes, and end-to-end behaviour
under churn.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Flow, Horse, HorseConfig, TrafficMatrix
from repro.control import ControlChannel, Controller
from repro.control.apps import BlackholeApp, ShortestPathApp
from repro.flowsim import FlowLevelEngine, FlowState
from repro.ixp import build_ixp
from repro.net.generators import fat_tree, single_switch, tree
from repro.openflow import attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.sim import FaultProfile, LinkFaultInjector, Simulator
from repro.traffic import FlowGenConfig, FlowGenerator, IxpTraceSynthesizer
from repro.sim.rng import RngRegistry


class TestConservation:
    def test_bytes_conserved_on_ixp_under_load(self):
        fabric = build_ixp(12, seed=6)
        synth = IxpTraceSynthesizer(
            fabric,
            peak_total_bps=5e9,
            flow_config=FlowGenConfig(mean_flow_bytes=1e6,
                                      min_demand_bps=10e6),
        )
        flows = synth.steady_flows(
            RngRegistry(6).stream("int"), duration_s=1.0, load_fraction=0.5
        )
        horse = Horse(
            fabric.topology,
            policies={"load_balancing": {"mode": "ecmp", "match_on": "ip_dst"}},
        )
        horse.submit_flows(flows)
        result = horse.run(until=60.0)
        # Every routed byte was delivered (elastic flows, no drops).
        summary = result.engine_summary
        assert summary["bytes_delivered"] == pytest.approx(
            summary["bytes_sent"], rel=1e-9
        )
        # Volume flows all completed and sent exactly their size.
        for flow in flows:
            assert flow.state is FlowState.COMPLETED
            assert flow.bytes_sent == pytest.approx(flow.size_bytes, abs=1)

    def test_port_counter_symmetry(self):
        """Whatever one end transmits, the other end receives."""
        topo = tree(2, 2)
        horse = Horse(
            topo,
            policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        )
        h1, h4 = topo.host("h1"), topo.host("h4")
        horse.submit_flows(
            [
                Flow(
                    headers=tcp_flow(h1.ip, h4.ip, 1000, 80),
                    src="h1",
                    dst="h4",
                    demand_bps=5e6,
                    size_bytes=2_000_000,
                )
            ]
        )
        horse.run()
        for link in topo.links:
            assert link.port_a.tx_bytes == link.port_b.rx_bytes
            assert link.port_b.tx_bytes == link.port_a.rx_bytes


class TestEngineAgreement:
    def test_blackhole_outcome_identical_across_engines(self):
        def run(engine_kind):
            topo = tree(2, 2)
            horse = Horse(
                topo,
                policies={
                    "forwarding": {"mode": "shortest-path", "match_on": "ip_dst"},
                    "blackholing": [{"target": "h4"}],
                },
                config=HorseConfig(engine=engine_kind),
            )
            h1 = topo.host("h1")
            h3, h4 = topo.host("h3"), topo.host("h4")
            victim = Flow(
                headers=tcp_flow(h1.ip, h4.ip, 1000, 80),
                src="h1", dst="h4", demand_bps=5e6, size_bytes=500_000,
            )
            innocent = Flow(
                headers=tcp_flow(h1.ip, h3.ip, 1001, 80),
                src="h1", dst="h3", demand_bps=5e6, size_bytes=500_000,
            )
            horse.submit_flows([victim, innocent])
            horse.run(until=30.0)
            return victim, innocent

        for engine_kind in ("flow", "packet"):
            victim, innocent = run(engine_kind)
            assert victim.bytes_delivered == 0, engine_kind
            assert innocent.bytes_delivered >= 500_000 * 0.99, engine_kind

    def test_ecmp_path_choice_identical_across_engines(self):
        """SELECT groups hash identically, so both engines pick the same
        core for the same 5-tuple."""
        def core_entry_hits(engine_kind):
            topo = fat_tree(4)
            horse = Horse(
                topo,
                policies={"load_balancing": {"mode": "ecmp", "match_on": "ip_dst"}},
                config=HorseConfig(engine=engine_kind),
            )
            h1, h16 = topo.host("h1"), topo.host("h16")
            flow = Flow(
                headers=tcp_flow(h1.ip, h16.ip, 1234, 80),
                src="h1", dst="h16", demand_bps=50e6, size_bytes=200_000,
            )
            horse.submit_flows([flow])
            horse.run(until=30.0)
            horse.sync_statistics()
            used = set()
            for switch in topo.switches:
                if not switch.name.startswith("core"):
                    continue
                for port in switch.ports.values():
                    if port.rx_bytes > 0:
                        used.add(switch.name)
            return used

        assert core_entry_hits("flow") == core_entry_hits("packet")


class TestChurnScenario:
    def test_ixp_with_faults_policies_and_monitoring(self):
        """The whole stack at once: IXP + ECMP + blackhole + faults +
        monitor; the run stays consistent."""
        fabric = build_ixp(12, seed=9)
        topo = fabric.topology
        for s in topo.switches:
            attach_pipeline(s)
        sim = Simulator()
        controller = Controller()
        blackhole = BlackholeApp(
            targets=[topo.host(fabric.members[3].host_name).ip]
        )
        controller.add_app(blackhole)
        controller.add_app(ShortestPathApp(match_on="ip_dst"))
        channel = ControlChannel(sim, topo, controller=controller)
        engine = FlowLevelEngine(sim, topo, control=channel)
        channel.connect_engine(engine)
        controller.start()

        synth = IxpTraceSynthesizer(
            fabric,
            peak_total_bps=3e9,
            flow_config=FlowGenConfig(mean_flow_bytes=1e6,
                                      min_demand_bps=10e6),
        )
        flows = synth.steady_flows(
            RngRegistry(9).stream("churn"), duration_s=2.0, load_fraction=0.5
        )
        engine.submit_all(flows)

        injector = LinkFaultInjector(engine, random.Random(9), horizon_s=10.0)
        injector.watch(
            ("edge1", "core1"), FaultProfile(mtbf_s=3.0, mttr_s=0.5)
        )
        injector.start()
        sim.run(until=40.0)
        engine.finish()

        victim_host = fabric.members[3].host_name
        for flow in flows:
            if flow.dst == victim_host:
                assert flow.bytes_delivered == 0
            elif flow.state is FlowState.COMPLETED:
                assert flow.bytes_delivered == pytest.approx(
                    flow.size_bytes, abs=1
                )
        # The edge/core fabric stayed connected through failures (a
        # second core always exists), so non-victim flows delivered.
        delivered = [
            f for f in flows
            if f.dst != victim_host and f.state is FlowState.COMPLETED
        ]
        assert len(delivered) > 0.9 * len(
            [f for f in flows if f.dst != victim_host]
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_random_star_runs_conserve_bytes(seed):
    """Random uniform workloads on a star: mass conservation and
    capacity feasibility hold for every seed."""
    rng = random.Random(seed)
    topo = single_switch(4, capacity_bps=50e6)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(telemetry={"link_sample_interval_s": 0.25}),
    )
    tm = TrafficMatrix.uniform(
        [h.name for h in topo.hosts], total_bps=rng.uniform(10e6, 120e6)
    )
    generator = FlowGenerator(
        topo, rng, config=FlowGenConfig(mean_flow_bytes=100e3,
                                        min_demand_bps=5e6)
    )
    flows = generator.from_matrix(tm, horizon_s=1.0)
    horse.submit_flows(flows)
    result = horse.run(until=120.0)
    summary = result.engine_summary
    # Elastic flows: delivered == sent (the star cannot blackhole).
    elastic_sent = sum(f.bytes_sent for f in flows if f.elastic)
    elastic_delivered = sum(f.bytes_delivered for f in flows if f.elastic)
    assert elastic_delivered == pytest.approx(elastic_sent, rel=1e-9)
    # Sampled utilization never exceeds capacity.
    for value in result.link_max_utilization.values():
        assert value <= 1.0 + 1e-6
