"""Controller app tests: learning, shortest path, ECMP, policies."""

import pytest

from repro.control import ControlChannel, Controller
from repro.control.apps import (
    AppPeeringApp,
    BlackholeApp,
    EcmpLoadBalancerApp,
    L2LearningApp,
    PeeringRule,
    RateLimit,
    RateLimiterApp,
    ShortestPathApp,
    SourceRoute,
    SourceRoutingApp,
    app_port,
)
from repro.errors import ControlPlaneError
from repro.flowsim import Flow, FlowLevelEngine, FlowState, Terminal
from repro.net import IPv4Address, IPv4Network
from repro.net.generators import fat_tree, linear, tree
from repro.openflow import Match, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator


def wire(topo, *apps, num_tables=2):
    """Attach pipelines, build controller+channel+engine, start apps."""
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
    return sim, controller, channel, engine


def make_flow(topo, src, dst, demand=1e6, size=100_000, start=0.0,
              sport=1000, dport=80):
    s, d = topo.host(src), topo.host(dst)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, dport, eth_src=s.mac, eth_dst=d.mac),
        src=src,
        dst=dst,
        demand_bps=demand,
        size_bytes=size,
        start_time=start,
    )


class TestL2Learning:
    def test_first_flow_floods_then_learns(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(topo, L2LearningApp())
        forward = make_flow(topo, "h1", "h4")
        engine.submit(forward)
        sim.run()
        assert forward.delivered
        # Reverse traffic uses learned state: fewer packet-ins than hops.
        before = engine.stats["packet_ins"]
        back = make_flow(topo, "h4", "h1", sport=80, dport=1000,
                         start=sim.now + 0.1)
        # restart: submit on same sim
        engine.submit(back)
        sim.run()
        assert back.delivered
        app = controller.app("l2-learning")
        assert len(app.mac_table) > 0

    def test_learning_rules_installed_after_reverse_traffic(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(topo, L2LearningApp())
        engine.submit(make_flow(topo, "h1", "h4"))
        engine.submit(make_flow(topo, "h4", "h1", sport=80, dport=1000,
                                start=1.0))
        sim.run()
        # One-way traffic alone only floods (dst unknown); once h4 talks
        # back, both MACs are learned and direct rules get installed.
        assert controller.rule_count() > len(topo.switches)

    def test_port_down_purges_learning(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(topo, L2LearningApp())
        engine.submit(make_flow(topo, "h1", "h4"))
        sim.run()
        app = controller.app("l2-learning")
        assert app.mac_table
        # Kill every edge link; learning for those ports must go.
        engine.fail_link_at(sim.now + 0.1, "s2", "s1")
        sim.run()
        h4_mac = topo.host("h4").mac
        s1 = topo.switch("s1")
        # s1's entry toward h4 went through the failed port and is purged.
        assert (s1.dpid, h4_mac) not in app.mac_table

    def test_deleted_rules_report_traffic_up_to_the_delete(self):
        """A flow-mod DELETE reads counters the engine accrues lazily, so
        its FlowRemoved messages must see the traffic up to that instant."""
        topo = linear(2)
        removed = []

        class Recording(L2LearningApp):
            def on_flow_removed(self, message):
                removed.append(message)

        app = Recording()
        sim, controller, channel, engine = wire(topo, app)
        engine.submit(make_flow(topo, "h2", "h1", size=1000, sport=80, dport=1000))
        # Constant 1 Mb/s from 0.1 s: 250 000 B by 2.1 s.
        engine.submit(make_flow(topo, "h1", "h2", size=None, start=0.1))
        s1 = topo.switch("s1").dpid
        sim.call_at(2.1, lambda s: app.delete_flows(s1, Match()))
        sim.run(until=3.0)
        # The steady flow's walk on s1 matched the table-miss rule (its
        # punt) and the learned rule; the miss rule also carried h2->h1.
        assert sorted(m.byte_count for m in removed) == [250_000, 251_000]


class TestShortestPath:
    def test_all_pairs_delivered_on_fat_tree(self):
        topo = fat_tree(4)
        sim, controller, channel, engine = wire(
            topo, ShortestPathApp(match_on="ip_dst")
        )
        flows = [
            make_flow(topo, "h1", "h16"),
            make_flow(topo, "h5", "h2", sport=1001),
            make_flow(topo, "h9", "h12", sport=1002),
        ]
        for f in flows:
            engine.submit(f)
        sim.run()
        assert all(f.delivered for f in flows)
        assert all(f.state is FlowState.COMPLETED for f in flows)

    def test_rule_count_is_hosts_times_switches(self):
        topo = fat_tree(4)
        sim, controller, channel, engine = wire(
            topo, ShortestPathApp(match_on="ip_dst")
        )
        # Every switch can reach every host in a fat-tree.
        assert controller.rule_count() == 16 * 20

    def test_invalid_match_on(self):
        with pytest.raises(ControlPlaneError):
            ShortestPathApp(match_on="bogus")

    def test_stop_removes_rules(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(
            topo, ShortestPathApp(match_on="ip_dst")
        )
        assert controller.rule_count() > 0
        controller.remove_app("shortest-path")
        assert controller.rule_count() == 0


class TestEcmp:
    def test_groups_created_on_multipath_switches(self):
        topo = fat_tree(4)
        sim, controller, channel, engine = wire(
            topo, EcmpLoadBalancerApp(match_on="ip_dst")
        )
        groups = sum(
            len(s.pipeline.groups) for s in topo.switches
        )
        assert groups > 0

    def test_flows_spread_across_core_paths(self):
        topo = fat_tree(4)
        sim, controller, channel, engine = wire(
            topo, EcmpLoadBalancerApp(match_on="ip_dst")
        )
        flows = [
            make_flow(topo, "h1", "h16", sport=1000 + i, size=10_000)
            for i in range(40)
        ]
        for f in flows:
            engine.submit(f)
        sim.run()
        assert all(f.delivered for f in flows)
        cores_used = set()
        for f in flows:
            for dpid, _, _ in f.route.switch_hops:
                name = topo.switch_by_dpid(dpid).name
                if name.startswith("core"):
                    cores_used.add(name)
        assert len(cores_used) >= 2  # hashing actually diversifies

    def test_same_flow_keys_stick_to_one_path(self):
        topo = fat_tree(4)
        sim, controller, channel, engine = wire(
            topo, EcmpLoadBalancerApp(match_on="ip_dst")
        )
        a = make_flow(topo, "h1", "h16", sport=1000)
        engine.submit(a)
        sim.run()
        path_a = [hop[0] for hop in a.route.switch_hops]
        b = make_flow(topo, "h1", "h16", sport=1000, start=sim.now + 1)
        engine.submit(b)
        sim.run()
        assert [hop[0] for hop in b.route.switch_hops] == path_a


class TestBlackhole:
    def test_blackhole_by_ip(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(
            topo,
            BlackholeApp(targets=[topo.host("h4").ip]),
            ShortestPathApp(match_on="ip_dst"),
        )
        victim = make_flow(topo, "h1", "h4")
        innocent = make_flow(topo, "h1", "h3", sport=1001)
        for f in [victim, innocent]:
            engine.submit(f)
        sim.run(until=30.0)
        assert victim.route.terminal is Terminal.BLACKHOLED
        assert innocent.delivered

    def test_add_and_remove_target_at_runtime(self):
        topo = tree(2, 2)
        app = BlackholeApp()
        sim, controller, channel, engine = wire(
            topo, app, ShortestPathApp(match_on="ip_dst")
        )
        flow = make_flow(topo, "h1", "h4", demand=1e6, size=None)
        flow.duration_s = 10.0
        engine.submit(flow)
        sim.call_at(2.0, lambda s: app.add_target(topo.host("h4").ip))
        sim.call_at(6.0, lambda s: app.remove_target(topo.host("h4").ip))
        sim.run()
        engine.finish()
        assert flow.reroutes >= 2  # blackholed then restored
        assert flow.delivered  # ends delivered

    def test_prefix_blackhole(self):
        topo = tree(2, 2)
        prefix = IPv4Network("10.0.0.0/30")  # covers h1..h3 addresses
        sim, controller, channel, engine = wire(
            topo,
            BlackholeApp(targets=[prefix]),
            ShortestPathApp(match_on="ip_dst"),
        )
        flow = make_flow(topo, "h4", "h2", sport=1001)
        engine.submit(flow)
        sim.run(until=10.0)
        assert flow.route.terminal is Terminal.BLACKHOLED

    def test_direction_src(self):
        topo = tree(2, 2)
        sim, controller, channel, engine = wire(
            topo,
            BlackholeApp(targets=[topo.host("h1").ip], direction="src"),
            ShortestPathApp(match_on="ip_dst"),
        )
        out = make_flow(topo, "h1", "h4")
        into = make_flow(topo, "h4", "h1", sport=1001)
        for f in [out, into]:
            engine.submit(f)
        sim.run(until=30.0)
        assert out.route.terminal is Terminal.BLACKHOLED
        assert into.delivered

    def test_remove_unknown_target_raises(self):
        topo = tree(2, 2)
        app = BlackholeApp()
        wire(topo, app)
        with pytest.raises(ControlPlaneError):
            app.remove_target(IPv4Address("9.9.9.9"))


class TestRateLimiter:
    def test_limit_caps_flow(self):
        topo = tree(2, 2)
        limit = RateLimit(
            match=Match(ip_src=topo.host("h1").ip), rate_bps=2e6, scope=["s2"]
        )
        app = RateLimiterApp(limits=[limit])
        app.table_id = 0
        app.next_table = 1
        forwarding = ShortestPathApp(match_on="ip_dst")
        forwarding.table_id = 1
        sim, controller, channel, engine = wire(topo, app, forwarding)
        flow = make_flow(topo, "h1", "h4", demand=8e6, size=1_000_000)
        engine.submit(flow)
        sim.run()
        # 1 MB at 2 Mb/s = 4 s.
        assert flow.end_time == pytest.approx(4.0)

    def test_standalone_single_table_raises(self):
        topo = tree(2, 2)
        for s in topo.switches:
            attach_pipeline(s, num_tables=1)
        app = RateLimiterApp(limits=[RateLimit(match=Match(), rate_bps=1e6)])
        sim = Simulator()
        controller = Controller()
        controller.add_app(app)
        ControlChannel(sim, topo, controller=controller)
        with pytest.raises(ControlPlaneError):
            controller.start()

    def test_invalid_rate(self):
        for rate in (0, float("nan")):
            with pytest.raises(ControlPlaneError):
                RateLimit(match=Match(), rate_bps=rate)


class TestAppPeeringAndSourceRouting:
    def test_app_port_resolution(self):
        assert app_port("http") == 80
        assert app_port(8080) == 8080
        with pytest.raises(ControlPlaneError):
            app_port("gopher")
        with pytest.raises(ControlPlaneError):
            app_port(0)

    def test_peering_overrides_only_matching_app(self):
        from repro.net.generators import full_mesh

        topo = full_mesh(3, hosts_per_switch=1)
        peering = AppPeeringApp(
            rules=[
                PeeringRule(
                    src_host="h1",
                    dst_host="h2",
                    app="http",
                    path=["h1", "s1", "s3", "s2", "h2"],
                )
            ]
        )
        sim, controller, channel, engine = wire(
            topo, peering, ShortestPathApp(match_on="ip_dst")
        )
        http = make_flow(topo, "h1", "h2", dport=80)
        ssh = make_flow(topo, "h1", "h2", sport=1001, dport=22)
        for f in [http, ssh]:
            engine.submit(f)
        sim.run()
        assert http.delivered and ssh.delivered
        assert len(http.route.directions) == 4  # detour via s3
        assert len(ssh.route.directions) == 3  # direct

    def test_peering_without_a_path_over_parallel_links(self):
        from repro.net import Topology

        topo = Topology()
        for name in ("s1", "s2", "s3"):
            topo.add_switch(name)
        topo.add_link("s1", "s2")
        topo.add_link("s1", "s2")
        topo.add_link("s1", "s3")
        topo.add_link("s3", "s2")
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_link("h1", "s1")
        topo.add_link("h2", "s2")
        peering = AppPeeringApp(
            rules=[PeeringRule(src_host="h1", dst_host="h2", app="http")]
        )
        sim, controller, channel, engine = wire(
            topo, peering, ShortestPathApp(match_on="ip_dst")
        )
        for name in ("s1", "s3", "s2"):
            tables = topo.switch(name).pipeline.tables
            priorities = [e.priority for t in tables for e in t]
            assert priorities.count(peering.priority) == 1, name
        http = make_flow(topo, "h1", "h2", dport=80)
        engine.submit(http)
        sim.run()
        assert http.delivered
        assert len(http.route.directions) == 4  # the second path, via s3

    def test_source_route_pins_pair(self):
        from repro.net.generators import full_mesh

        topo = full_mesh(3, hosts_per_switch=1)
        routing = SourceRoutingApp(
            routes=[
                SourceRoute("h1", "h2", ["h1", "s1", "s3", "s2", "h2"])
            ]
        )
        sim, controller, channel, engine = wire(
            topo, routing, ShortestPathApp(match_on="ip_dst")
        )
        pinned = make_flow(topo, "h1", "h2")
        other = make_flow(topo, "h2", "h1", sport=1001)
        for f in [pinned, other]:
            engine.submit(f)
        sim.run()
        assert len(pinned.route.directions) == 4  # follows the pin
        assert len(other.route.directions) == 3  # reverse is unpinned

    def test_source_route_validation(self):
        with pytest.raises(ControlPlaneError):
            SourceRoute("h1", "h2", ["h1", "h2"])  # no switch

    def test_disconnected_path_rejected_at_install(self):
        from repro.net.generators import full_mesh

        topo = full_mesh(3, hosts_per_switch=1)
        routing = SourceRoutingApp(
            routes=[SourceRoute("h1", "h2", ["h1", "s1", "h2"])]
        )
        for s in topo.switches:
            attach_pipeline(s)
        sim = Simulator()
        controller = Controller()
        controller.add_app(routing)
        ControlChannel(sim, topo, controller=controller)
        with pytest.raises(Exception):
            controller.start()


class TestControllerCore:
    def test_duplicate_app_name_rejected(self):
        controller = Controller()
        controller.add_app(L2LearningApp())
        with pytest.raises(ControlPlaneError):
            controller.add_app(L2LearningApp())

    def test_unknown_app_lookup(self):
        with pytest.raises(ControlPlaneError):
            Controller().app("ghost")

    def test_start_without_channel_raises(self):
        with pytest.raises(ControlPlaneError):
            Controller().start()

    def test_app_cookies_are_distinct(self):
        controller = Controller()
        a = controller.add_app(L2LearningApp(name="a"))
        b = controller.add_app(L2LearningApp(name="b"))
        assert a.cookie != b.cookie


class TestWireClientApps:
    """The built-in wire client hosts a Controller; its mode picks the
    app (learning parity is tests/diff/test_wire_differential.py's)."""

    def test_static_routes_app_installs_in_process(self):
        """StaticRoutesApp is an ordinary app: it runs on the in-proc
        channel as it does behind the client's sockets."""
        from repro.wire.client import StaticRoutesApp

        topo = tree(2, 2)
        s1 = topo.switch("s1")
        h1 = topo.host("h1")
        routes = [
            {"dpid": s1.dpid, "out_port": 1, "eth_dst": str(h1.mac)},
            {"dpid": s1.dpid, "out_port": 2, "in_port": 1, "priority": 20},
        ]
        wire(topo, StaticRoutesApp(routes))
        entries = list(s1.pipeline.tables[0])
        assert sorted(e.priority for e in entries) == [10, 20]
        by_priority = {e.priority: e for e in entries}
        assert by_priority[10].match.eth_dst == h1.mac
        assert by_priority[20].match.in_port == 1

    def test_static_mode_over_the_wire(self):
        """`wire.client: static` delivers along the listed routes, the
        rules carry the first app's cookie, and no packet-in is raised."""
        from repro import Horse, HorseConfig
        from repro.control.app import ControllerApp
        from repro.net.generators import linear

        topo = linear(2, hosts_per_switch=1)
        # (switch, destination host, next hop): h1 hangs off s1, h2 off s2.
        hops = (
            ("s1", "h1", "h1"), ("s1", "h2", "s2"),
            ("s2", "h2", "h2"), ("s2", "h1", "s1"),
        )
        routes = [
            {
                "dpid": topo.switch(switch).dpid,
                "out_port": topo.egress_port(switch, via).number,
                "eth_dst": str(topo.host(dst).mac),
            }
            for switch, dst, via in hops
        ]
        horse = Horse(
            topo,
            config=HorseConfig(
                control="wire",
                wire={
                    "client": "static",
                    "client_routes": routes,
                    "latency_budget_s": 60.0,
                },
            ),
        )
        horse.submit_flows([make_flow(topo, "h1", "h2")])
        try:
            result = horse.run()
        finally:
            horse.shutdown_wire()
        assert result.delivered_fraction == 1.0
        assert result.metrics["wire.packet_ins_sent"] == 0
        cookies = {
            entry.cookie
            for switch in topo.switches
            for entry in switch.pipeline.tables[0]
        }
        assert cookies == {ControllerApp.COOKIE_BASE + 1}
