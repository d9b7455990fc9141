"""Topology, link, and port tests."""

import pytest

from repro.errors import LinkError, NodeNotFoundError, PortError, TopologyError
from repro.net import Link, Topology
from repro.net.generators import (
    fat_tree,
    full_mesh,
    leaf_spine,
    linear,
    single_switch,
    tree,
    waxman,
)


class TestNodesAndPorts:
    def test_add_and_lookup(self):
        topo = Topology()
        topo.add_switch("s1", dpid=7)
        topo.add_host("h1")
        assert topo.switch("s1").dpid == 7
        assert topo.switch_by_dpid(7).name == "s1"
        assert topo.host("h1").mac is not None
        assert "h1" in topo and "nope" not in topo
        assert len(topo) == 2

    def test_duplicate_name_rejected(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.add_host("s1")

    def test_unknown_lookups(self):
        topo = Topology()
        with pytest.raises(NodeNotFoundError):
            topo.node("ghost")
        with pytest.raises(NodeNotFoundError):
            topo.switch_by_dpid(99)

    def test_switch_by_dpid_follows_registration(self):
        topo = Topology()
        first = topo.add_switch("s1", dpid=7)
        assert topo.switch_by_dpid(7) is first
        with pytest.raises(NodeNotFoundError):
            topo.switch_by_dpid(8)
        topo.add_host("h1")  # a host never answers for a dpid
        second = topo.add_switch("s2")  # next unused dpid
        assert second.dpid == 8
        assert topo.switch_by_dpid(8) is second
        assert topo.switch_by_dpid(7) is first
        # A duplicate dpid resolves to the switch registered first.
        topo.add_switch("s3", dpid=7)
        assert topo.switch_by_dpid(7) is first
        with pytest.raises(NodeNotFoundError, match="no switch with dpid 99"):
            topo.switch_by_dpid(99)

    def test_kind_checked_lookups(self):
        topo = Topology()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.host("s1")

    def test_default_names_and_addresses_are_deterministic(self):
        a = Topology()
        b = Topology()
        ha = a.add_host()
        hb = b.add_host()
        assert ha.name == hb.name == "h1"
        assert ha.mac == hb.mac
        assert ha.ip == hb.ip

    def test_port_numbers_autoincrement(self):
        topo = Topology()
        s = topo.add_switch("s1")
        assert s.add_port().number == 1
        assert s.add_port().number == 2
        with pytest.raises(PortError):
            s.add_port(1)
        with pytest.raises(PortError):
            s.port(99)


class TestLinks:
    def test_link_connects_ports_and_directions(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        link = topo.add_link(a, b, capacity_bps=5e9, delay_s=1e-3)
        assert link.capacity_bps == 5e9
        pa = a.port(1)
        assert pa.peer is b.port(1)
        direction = link.direction_from(pa)
        assert direction.dst_port.node is b
        assert direction.delay_s == 1e-3

    def test_self_loop_rejected(self):
        topo = Topology()
        a = topo.add_switch("a")
        with pytest.raises(LinkError):
            topo.add_link(a, a)

    def test_double_connect_rejected(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        pa = a.add_port()
        pb = b.add_port()
        Link(pa, pb)
        with pytest.raises(LinkError):
            Link(pa, b.add_port())

    def test_invalid_link_parameters(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        with pytest.raises(LinkError):
            topo.add_link(a, b, capacity_bps=0)
        with pytest.raises(LinkError):
            topo.add_link(a, b, delay_s=-1)

    def test_links_between_and_parallel_links(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        topo.add_link(a, b)
        topo.add_link(a, b)
        assert len(topo.links_between(a, b)) == 2
        with pytest.raises(LinkError):
            topo.link_between(a, b)  # ambiguous

    def test_egress_port_skips_down_links(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        l1 = topo.add_link(a, b)
        l2 = topo.add_link(a, b)
        l1.set_up(False)
        port = topo.egress_port(a, b)
        assert port.link is l2

    def test_utilization_tracks_allocation(self):
        topo = Topology()
        a = topo.add_switch("a")
        b = topo.add_switch("b")
        link = topo.add_link(a, b, capacity_bps=1e9)
        direction = link.direction_from(a.port(1))
        direction.allocated_bps = 25e7
        assert direction.utilization == 0.25


class TestPaths:
    def test_shortest_path_linear(self):
        topo = linear(3, hosts_per_switch=1)
        names = [n.name for n in topo.shortest_path("h1", "h3")]
        assert names == ["h1", "s1", "s2", "s3", "h3"]

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_host("h1")
        topo.add_host("h2")
        with pytest.raises(TopologyError):
            topo.shortest_path("h1", "h2")

    def test_equal_cost_paths_fattree(self):
        topo = fat_tree(4)
        paths = topo.equal_cost_paths("h1", "h16")
        assert len(paths) == 4  # (k/2)^2 core paths
        lengths = {len(p) for p in paths}
        assert lengths == {7}  # h-edge-agg-core-agg-edge-h

    def test_failure_changes_shortest_path(self):
        topo = full_mesh(3, hosts_per_switch=1)
        before = [n.name for n in topo.shortest_path("h1", "h2")]
        assert before == ["h1", "s1", "s2", "h2"]
        topo.fail_link("s1", "s2")
        after = [n.name for n in topo.shortest_path("h1", "h2")]
        assert after == ["h1", "s1", "s3", "s2", "h2"]
        topo.restore_link("s1", "s2")
        assert [n.name for n in topo.shortest_path("h1", "h2")] == before

    def test_k_shortest_paths(self):
        topo = full_mesh(4, hosts_per_switch=1)
        paths = topo.k_shortest_paths("s1", "s2", 3)
        assert paths[0] == ["s1", "s2"]
        assert len(paths) == 3
        assert all(len(p) >= 2 for p in paths)
        assert topo.k_shortest_paths("s2", "s2", 4) == [["s2"]]
        with pytest.raises(ValueError):
            topo.k_shortest_paths("s1", "s2", 0)
        for other in ("s2", "s3", "s4"):
            topo.fail_link("s1", other)
        with pytest.raises(TopologyError):
            topo.k_shortest_paths("s1", "s2", 2)

    def test_k_shortest_paths_collapses_parallel_links(self):
        topo = Topology()
        for name in ("s1", "s2", "s3"):
            topo.add_switch(name)
        topo.add_link("s1", "s2")
        topo.add_link("s1", "s2")
        topo.add_link("s1", "s3")
        topo.add_link("s3", "s2")
        assert topo.k_shortest_paths("s1", "s2", 2) == [
            ["s1", "s2"],
            ["s1", "s3", "s2"],
        ]
        assert topo.k_shortest_paths("s1", "s2", 5) == [
            ["s1", "s2"],
            ["s1", "s3", "s2"],
        ]

    def test_path_links_returns_directions(self):
        topo = linear(2, hosts_per_switch=1)
        path = topo.shortest_path("h1", "h2")
        directions = topo.path_links(path)
        assert len(directions) == 3
        assert directions[0].src_port.node.name == "h1"
        assert directions[-1].dst_port.node.name == "h2"

    def test_neighbors_up_only(self):
        topo = linear(3)
        assert {n.name for n in topo.neighbors("s2")} >= {"s1", "s3"}
        topo.fail_link("s2", "s3")
        assert "s3" not in {n.name for n in topo.neighbors("s2")}
        assert "s3" in {n.name for n in topo.neighbors("s2", up_only=False)}


class TestGenerators:
    def test_fat_tree_counts(self):
        topo = fat_tree(4)
        assert len(topo.hosts) == 16
        assert len(topo.switches) == 20
        assert len(topo.links) == 48

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(TopologyError):
            fat_tree(3)

    def test_leaf_spine_counts(self):
        topo = leaf_spine(4, 2, hosts_per_leaf=3)
        assert len(topo.hosts) == 12
        assert len(topo.switches) == 6
        assert len(topo.links) == 4 * 2 + 12

    def test_tree_counts(self):
        topo = tree(depth=2, fanout=2)
        assert len(topo.hosts) == 4
        assert len(topo.switches) == 3

    def test_single_switch(self):
        topo = single_switch(5)
        assert len(topo.hosts) == 5
        assert len(topo.switches) == 1

    def test_full_mesh_counts(self):
        topo = full_mesh(4, hosts_per_switch=2)
        assert len(topo.links) == 6 + 8

    def test_waxman_connected_and_deterministic(self):
        a = waxman(10, seed=5)
        b = waxman(10, seed=5)
        assert len(a.links) == len(b.links)
        # The spanning chain guarantees any pair is reachable.
        assert a.shortest_path("h1", "h10")

    def test_networkx_export(self):
        pytest.importorskip("networkx")
        topo = fat_tree(4)
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == 36
        assert graph.number_of_edges() == 48

    def test_interop_without_networkx_names_the_extra(self, monkeypatch, tmp_path):
        import sys

        from repro.net import save_graphml

        monkeypatch.setitem(sys.modules, "networkx", None)
        topo = linear(2)
        with pytest.raises(ImportError, match=r"repro\[graph\]"):
            topo.to_networkx()
        with pytest.raises(ImportError, match=r"repro\[graph\]"):
            save_graphml(topo, str(tmp_path / "topo.graphml"))
        assert topo.k_shortest_paths("s1", "s2", 2) == [["s1", "s2"]]

    def test_generator_invalid_args(self):
        with pytest.raises(TopologyError):
            linear(0)
        with pytest.raises(TopologyError):
            single_switch(0)
        with pytest.raises(TopologyError):
            leaf_spine(0, 1)


def test_importing_the_api_does_not_import_networkx():
    """networkx loads only for ``to_networkx`` and GraphML export: not
    with ``import repro``, where it would be most of the import time,
    and not on a run, not even one whose application-peering rule asks
    for k shortest paths."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    scenario = os.path.join(
        os.path.dirname(__file__), "..", "examples", "scenarios", "ixp_small.json"
    )
    run = (
        "import json, sys\n"
        "from repro.runtime.scenario import run_scenario\n"
        f"doc = json.load(open({scenario!r}))\n"
        "doc['policies']['application_peering'] = "
        "[{'src': 'm64514', 'dst': 'm64512', 'app': 'http'}]\n"
        "_, result, count = run_scenario(doc)\n"
        "assert count > 0 and result.flows\n"
        "sys.exit('networkx' in sys.modules)\n"
    )
    for code in ("import sys, repro.api; sys.exit('networkx' in sys.modules)", run):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr or "networkx was imported"
