"""Topology serialization tests: JSON round trip, GraphML export."""

import io
import json

import pytest

from repro.errors import TopologyError
from repro.net import (
    Topology,
    load_topology,
    save_graphml,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.net.generators import fat_tree, leaf_spine, linear


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "factory", [lambda: linear(3, hosts_per_switch=2), lambda: fat_tree(4)]
    )
    def test_round_trip_preserves_structure(self, factory):
        original = factory()
        rebuilt = topology_from_dict(topology_to_dict(original))
        assert rebuilt.summary() == original.summary()
        # Node identity, addressing, and dpids survive.
        for host in original.hosts:
            twin = rebuilt.host(host.name)
            assert twin.mac == host.mac
            assert twin.ip == host.ip
        for switch in original.switches:
            assert rebuilt.switch(switch.name).dpid == switch.dpid

    def test_port_numbers_preserved(self):
        original = leaf_spine(2, 2)
        rebuilt = topology_from_dict(topology_to_dict(original))
        for link in original.links:
            a, b = link.port_a, link.port_b
            twins = rebuilt.links_between(a.node.name, b.node.name)
            numbers = {
                (t.port_a.node.name, t.port_a.number, t.port_b.number)
                for t in twins
            }
            assert (a.node.name, a.number, b.number) in numbers or (
                b.node.name,
                b.number,
                a.number,
            ) in numbers

    def test_link_capacity_delay_and_state(self):
        topo = Topology()
        topo.add_switch("s1")
        topo.add_switch("s2")
        link = topo.add_link("s1", "s2", capacity_bps=42e9, delay_s=0.005)
        link.set_up(False)
        rebuilt = topology_from_dict(topology_to_dict(topo))
        twin = rebuilt.link_between("s1", "s2")
        assert twin.capacity_bps == 42e9
        assert twin.delay_s == 0.005
        assert not twin.up

    def test_metadata_round_trip(self):
        topo = Topology()
        switch = topo.add_switch("s1")
        switch.metadata["tier"] = "core"
        host = topo.add_host("h1")
        host.metadata["asn"] = 64512
        rebuilt = topology_from_dict(topology_to_dict(topo))
        assert rebuilt.switch("s1").metadata["tier"] == "core"
        assert rebuilt.host("h1").metadata["asn"] == 64512

    def test_file_round_trip(self, tmp_path):
        original = linear(2)
        path = str(tmp_path / "topo.json")
        save_topology(original, path)
        rebuilt = load_topology(path)
        assert rebuilt.summary() == original.summary()

    def test_stream_round_trip(self):
        original = linear(2)
        buffer = io.StringIO()
        save_topology(original, buffer)
        buffer.seek(0)
        rebuilt = load_topology(buffer)
        assert rebuilt.summary() == original.summary()

    def test_version_checked(self):
        doc = topology_to_dict(linear(2))
        doc["version"] = 99
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    def test_unknown_node_kind_rejected(self):
        doc = {
            "version": 1,
            "name": "x",
            "nodes": [{"name": "r1", "kind": "router"}],
            "links": [],
        }
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    def test_document_is_json_serializable(self):
        doc = topology_to_dict(fat_tree(4))
        text = json.dumps(doc)
        assert json.loads(text) == doc


class TestGraphml:
    def test_graphml_export_loads_in_networkx(self, tmp_path):
        nx = pytest.importorskip("networkx")
        topo = fat_tree(4)
        path = str(tmp_path / "topo.graphml")
        save_graphml(topo, path)
        graph = nx.read_graphml(path)
        assert graph.number_of_nodes() == 36
        assert graph.number_of_edges() == 48
        kinds = {data["kind"] for _, data in graph.nodes(data=True)}
        assert kinds == {"host", "switch"}
