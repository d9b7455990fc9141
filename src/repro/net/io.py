"""Topology serialization.

Round-trip topologies through a plain-JSON dict schema (stable,
version-tagged) and export to networkx-compatible GraphML for use with
external tooling.  Host addresses, switch dpids, link capacities/delays,
and administrative link state all survive the round trip; attached
OpenFlow pipelines do not (rules are controller state, not topology).
"""

from __future__ import annotations

import json
from typing import IO, Union

from ..errors import TopologyError
from .address import IPv4Address, MacAddress
from .topology import Topology, require_networkx

#: Schema version written into every document.
SCHEMA_VERSION = 1


def topology_to_dict(topology: Topology) -> dict:
    """Serialize a topology to a JSON-compatible dict.

    Examples
    --------
    >>> from repro.net.generators import linear
    >>> doc = topology_to_dict(linear(2))
    >>> doc["version"], len(doc["nodes"]), len(doc["links"])
    (1, 4, 3)
    """
    nodes = []
    for host in topology.hosts:
        nodes.append(
            {
                "name": host.name,
                "kind": "host",
                "mac": str(host.mac),
                "ip": str(host.ip),
                "metadata": dict(host.metadata),
            }
        )
    for switch in topology.switches:
        nodes.append(
            {
                "name": switch.name,
                "kind": "switch",
                "dpid": switch.dpid,
                "metadata": dict(switch.metadata),
            }
        )
    links = []
    for link in topology.links:
        links.append(
            {
                "a": link.port_a.node.name,
                "a_port": link.port_a.number,
                "b": link.port_b.node.name,
                "b_port": link.port_b.number,
                "capacity_bps": link.capacity_bps,
                "delay_s": link.delay_s,
                "up": link.up,
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "name": topology.name,
        "nodes": nodes,
        "links": links,
    }


def topology_from_dict(doc: dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise TopologyError(
            f"unsupported topology schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    topology = Topology(name=doc.get("name", "topology"))
    for node in doc.get("nodes", ()):
        kind = node.get("kind")
        if kind == "host":
            host = topology.add_host(
                node["name"],
                mac=MacAddress(node["mac"]),
                ip=IPv4Address(node["ip"]),
            )
            host.metadata.update(node.get("metadata", {}))
        elif kind == "switch":
            switch = topology.add_switch(node["name"], dpid=node["dpid"])
            switch.metadata.update(node.get("metadata", {}))
        else:
            raise TopologyError(f"unknown node kind {kind!r}")
    for item in doc.get("links", ()):
        link = topology.add_link(
            item["a"],
            item["b"],
            capacity_bps=item["capacity_bps"],
            delay_s=item["delay_s"],
            port_a=item.get("a_port"),
            port_b=item.get("b_port"),
        )
        if not item.get("up", True):
            link.set_up(False)
    return topology


def save_topology(topology: Topology, destination: Union[str, IO[str]]) -> None:
    """Write a topology to a JSON file (path or open text handle)."""
    doc = topology_to_dict(topology)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(doc, handle, indent=2)
    else:
        json.dump(doc, destination, indent=2)


def load_topology(source: Union[str, IO[str]]) -> Topology:
    """Read a topology from a JSON file (path or open text handle)."""
    if isinstance(source, str):
        with open(source) as handle:
            doc = json.load(handle)
    else:
        doc = json.load(source)
    return topology_from_dict(doc)


def save_graphml(topology: Topology, path: str) -> None:
    """Export to GraphML via networkx (for Gephi/igraph/etc.).

    Lossy relative to the JSON schema: port numbers are attributes and
    host addresses are strings, sufficient for visualization.
    """
    nx = require_networkx()
    graph = nx.Graph(name=topology.name)
    for host in topology.hosts:
        graph.add_node(host.name, kind="host", mac=str(host.mac), ip=str(host.ip))
    for switch in topology.switches:
        graph.add_node(switch.name, kind="switch", dpid=switch.dpid)
    for link in topology.links:
        graph.add_edge(
            link.port_a.node.name,
            link.port_b.node.name,
            capacity_bps=float(link.capacity_bps),
            delay_s=float(link.delay_s),
            a_port=link.port_a.number,
            b_port=link.port_b.number,
            up=link.up,
        )
    nx.write_graphml(graph, path)
