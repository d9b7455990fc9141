"""Tests for the extension apps: firewall, path protection, VLANs; and\ntraffic mirrored by an ALL group."""

import pytest

from repro.control import ControlChannel, Controller
from repro.control.apps import (
    AclRule,
    FirewallApp,
    PathProtectionApp,
    ShortestPathApp,
    allow,
    deny,
)
from repro.errors import ControlPlaneError
from repro.flowsim import Flow, FlowLevelEngine, Terminal
from repro.net import IPv4Address
from repro.net.generators import full_mesh, single_switch, tree
from repro.openflow import (
    ApplyActions,
    Bucket,
    GroupAction,
    GroupType,
    HeaderFields,
    Match,
    Output,
    PopVlan,
    PushVlan,
    attach_pipeline,
)
from repro.openflow.headers import IpProto, tcp_flow, udp_flow
from repro.sim import Simulator


def wire(topo, *apps, num_tables=2):
    for switch in topo.switches:
        if switch.pipeline is None:
            attach_pipeline(switch, num_tables=num_tables)
    sim = Simulator()
    controller = Controller()
    for app in apps:
        controller.add_app(app)
    channel = ControlChannel(sim, topo, controller=controller)
    engine = FlowLevelEngine(sim, topo, control=channel)
    channel.connect_engine(engine)
    controller.start()
    return sim, controller, engine


def make_flow(topo, src, dst, dport=80, sport=1000, proto="tcp", **kw):
    s, d = topo.host(src), topo.host(dst)
    builder = tcp_flow if proto == "tcp" else udp_flow
    defaults = dict(demand_bps=1e6, size_bytes=100_000)
    defaults.update(kw)
    return Flow(
        headers=builder(s.ip, d.ip, sport, dport),
        src=src,
        dst=dst,
        elastic=(proto == "tcp"),
        **defaults,
    )


class TestVlanActions:
    def test_push_and_pop_rewrite_headers(self):
        topo = single_switch(3)
        pipeline = attach_pipeline(topo.switch("s1"))
        pipeline.install(
            Match(), (ApplyActions((PushVlan(100), Output(2))),), priority=10
        )
        result = pipeline.process(HeaderFields(), in_port=1)
        assert result.outputs == [(2, HeaderFields(vlan_vid=100))]
        pipeline.install(
            Match(vlan_vid=100),
            (ApplyActions((PopVlan(), Output(3))),),
            priority=20,
        )
        tagged = HeaderFields(vlan_vid=100)
        result = pipeline.process(tagged, in_port=1)
        assert result.outputs == [(3, HeaderFields())]

    def test_vlan_id_range_checked(self):
        with pytest.raises(ValueError):
            PushVlan(0)
        with pytest.raises(ValueError):
            PushVlan(4095)

    def test_vlan_match_isolation(self):
        """Rules matching different VLANs never cross-match."""
        topo = single_switch(3)
        pipeline = attach_pipeline(topo.switch("s1"))
        pipeline.install(
            Match(vlan_vid=10), (ApplyActions((Output(2),)),), priority=10
        )
        pipeline.install(
            Match(vlan_vid=20), (ApplyActions((Output(3),)),), priority=10
        )
        assert pipeline.process(
            HeaderFields(vlan_vid=10), in_port=1
        ).out_ports == [2]
        assert pipeline.process(
            HeaderFields(vlan_vid=20), in_port=1
        ).out_ports == [3]
        assert pipeline.process(HeaderFields(), in_port=1).miss


class TestFirewall:
    def _apps(self, rules, default_allow=True, scope="all"):
        firewall = FirewallApp(
            rules=rules, default_allow=default_allow, scope=scope
        )
        firewall.table_id = 0
        firewall.next_table = 1
        forwarding = ShortestPathApp(match_on="ip_dst")
        forwarding.table_id = 1
        return firewall, forwarding

    def test_deny_rule_drops_matching_traffic(self):
        topo = tree(2, 2)
        firewall, forwarding = self._apps(
            [deny(Match(ip_proto=IpProto.UDP))]
        )
        sim, controller, engine = wire(topo, firewall, forwarding)
        udp = make_flow(topo, "h1", "h4", proto="udp", duration_s=1.0,
                        size_bytes=None)
        tcp = make_flow(topo, "h1", "h4", sport=1001)
        for f in [udp, tcp]:
            engine.submit(f)
        sim.run(until=30.0)
        assert udp.route.terminal is Terminal.BLACKHOLED
        assert tcp.delivered

    def test_first_match_wins(self):
        topo = tree(2, 2)
        victim_ip = topo.host("h4").ip
        # Allow h1's traffic to h4 explicitly, deny everything to h4.
        firewall, forwarding = self._apps(
            [
                allow(Match(ip_src=topo.host("h1").ip, ip_dst=victim_ip)),
                deny(Match(ip_dst=victim_ip)),
            ]
        )
        sim, controller, engine = wire(topo, firewall, forwarding)
        allowed = make_flow(topo, "h1", "h4")
        denied = make_flow(topo, "h2", "h4", sport=1001)
        for f in [allowed, denied]:
            engine.submit(f)
        sim.run(until=30.0)
        assert allowed.delivered
        assert denied.route.terminal is Terminal.BLACKHOLED

    def test_default_deny(self):
        topo = tree(2, 2)
        firewall, forwarding = self._apps(
            [allow(Match(ip_proto=IpProto.TCP))], default_allow=False
        )
        sim, controller, engine = wire(topo, firewall, forwarding)
        tcp = make_flow(topo, "h1", "h4")
        udp = make_flow(topo, "h1", "h3", proto="udp", sport=1001,
                        duration_s=1.0, size_bytes=None)
        for f in [tcp, udp]:
            engine.submit(f)
        sim.run(until=30.0)
        assert tcp.delivered
        assert not udp.delivered

    def test_append_rule_at_runtime(self):
        topo = tree(2, 2)
        firewall, forwarding = self._apps([])
        sim, controller, engine = wire(topo, firewall, forwarding)
        flow = make_flow(topo, "h1", "h4", duration_s=10.0, size_bytes=None)
        engine.submit(flow)
        sim.call_at(
            2.0,
            lambda s: firewall.append_rule(
                deny(Match(ip_dst=topo.host("h4").ip))
            ),
        )
        sim.run()
        engine.finish()
        assert flow.reroutes >= 1
        assert flow.route.terminal is Terminal.BLACKHOLED

    def test_single_table_pipeline_rejected(self):
        topo = tree(2, 2)
        for s in topo.switches:
            attach_pipeline(s, num_tables=1)
        firewall = FirewallApp(rules=[deny(Match())])
        sim = Simulator()
        controller = Controller()
        controller.add_app(firewall)
        ControlChannel(sim, topo, controller=controller)
        with pytest.raises(ControlPlaneError):
            controller.start()


class TestMirror:
    def test_mirrored_traffic_reaches_tap_and_destination(self):
        """An ALL group copies the flow to h2 and to the tap h3, above
        the forwarding rule the app installed."""
        topo = single_switch(3, capacity_bps=100e6)
        sim, controller, engine = wire(topo, ShortestPathApp(match_on="ip_dst"))
        pipeline = topo.switch("s1").pipeline
        pipeline.groups.add(1, GroupType.ALL, [
            Bucket((Output(topo.egress_port("s1", host).number),))
            for host in ("h2", "h3")
        ])
        pipeline.install(Match(ip_dst=topo.host("h2").ip),
                         (ApplyActions((GroupAction(1),)),), priority=150)
        flow = make_flow(topo, "h1", "h2", demand_bps=10e6,
                         duration_s=2.0, size_bytes=None)
        engine.submit(flow)
        sim.run()
        engine.finish()
        assert flow.delivered
        expected = 10e6 * 2 / 8
        assert topo.host("h2").uplink_port.rx_bytes == pytest.approx(
            expected, rel=0.01
        )
        assert topo.host("h3").uplink_port.rx_bytes == pytest.approx(
            expected, rel=0.01
        )


class TestPathProtection:
    def test_failover_without_controller_recompute(self):
        topo = full_mesh(3, hosts_per_switch=1)
        protection = PathProtectionApp(match_on="ip_dst")
        sim, controller, engine = wire(topo, protection)
        flow = make_flow(topo, "h1", "h2", duration_s=10.0, size_bytes=None)
        engine.submit(flow)
        flow_mods_before = None

        def check(s):
            nonlocal flow_mods_before
            flow_mods_before = engine.control.stats["flow_mods"]

        sim.call_at(1.9, check)
        engine.fail_link_at(2.0, "s1", "s2")
        sim.run(until=6.0)
        engine.finish()
        # Data-plane failover: the flow re-routed onto the backup...
        assert flow.delivered
        assert flow.reroutes >= 1
        assert len(flow.route.directions) == 4  # via s3
        # ...without the controller installing anything new on failure.
        assert engine.control.stats["flow_mods"] == flow_mods_before

    def test_backup_groups_installed(self):
        topo = full_mesh(3, hosts_per_switch=1)
        protection = PathProtectionApp(match_on="ip_dst")
        sim, controller, engine = wire(topo, protection)
        # s2 protecting h2's own attachment has no sideways alternative,
        # but s1 -> h2 has (via s3).
        s1 = topo.switch("s1")
        assert protection.protection[(s1.dpid, "h2")] >= 2

    def test_recovery_reinstalls_primaries(self):
        topo = full_mesh(3, hosts_per_switch=1)
        protection = PathProtectionApp(match_on="ip_dst")
        sim, controller, engine = wire(topo, protection)
        flow = make_flow(topo, "h1", "h2", duration_s=12.0, size_bytes=None)
        engine.submit(flow)
        engine.fail_link_at(2.0, "s1", "s2")
        engine.restore_link_at(6.0, "s1", "s2")
        sim.run(until=12.0)
        engine.finish()
        assert flow.delivered
        # Back on the direct path after recovery.
        assert len(flow.route.directions) == 3

    def test_invalid_match_on(self):
        with pytest.raises(ControlPlaneError):
            PathProtectionApp(match_on="nope")
