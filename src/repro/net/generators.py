"""Topology generators.

Standard shapes used across the test suite, examples, and benchmarks:
linear chains, stars, balanced trees, k-ary fat-trees, leaf-spine Clos
fabrics, full meshes, and Waxman random graphs.  The IXP fabric generator
(the paper's evaluation substrate) lives in :mod:`repro.ixp.fabric` and
builds on these primitives.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import TopologyError
from ..sim.rng import RngRegistry
from .topology import Topology

#: Default host access-link capacity (1 Gbps) and core multiplier.
DEFAULT_HOST_BPS = 1e9
DEFAULT_DELAY_S = 10e-6


def linear(
    num_switches: int,
    hosts_per_switch: int = 1,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """A chain of switches, each with ``hosts_per_switch`` hosts.

    ``s1 - s2 - ... - sN`` with hosts hanging off each switch.
    """
    if num_switches < 1:
        raise TopologyError(f"need >= 1 switch, got {num_switches}")
    topo = Topology(name=f"linear-{num_switches}x{hosts_per_switch}")
    switches = [topo.add_switch(f"s{i + 1}") for i in range(num_switches)]
    for left, right in zip(switches, switches[1:]):
        topo.add_link(left, right, capacity_bps=capacity_bps, delay_s=delay_s)
    for i, switch in enumerate(switches):
        for j in range(hosts_per_switch):
            host = topo.add_host(f"h{i * hosts_per_switch + j + 1}")
            topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo


def single_switch(
    num_hosts: int,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """One switch with ``num_hosts`` hosts (a star)."""
    if num_hosts < 1:
        raise TopologyError(f"need >= 1 host, got {num_hosts}")
    topo = Topology(name=f"star-{num_hosts}")
    switch = topo.add_switch("s1")
    for i in range(num_hosts):
        host = topo.add_host(f"h{i + 1}")
        topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo


def pods(
    num_pods: int,
    hosts_per_pod: int = 4,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """Disjoint star pods: ``num_pods`` independent single-switch cells.

    Pod ``p`` has switch ``p{p}s`` and hosts ``p{p}h0 .. p{p}h{n-1}``
    (the naming the benchmark harness uses).  There are no inter-pod
    links, so with pod-local traffic the pods are fully independent —
    the substrate for an embarrassingly-parallel scaling study.
    """
    if num_pods < 1 or hosts_per_pod < 1:
        raise TopologyError(
            f"need >= 1 pod and >= 1 host per pod, got {num_pods}, {hosts_per_pod}"
        )
    topo = Topology(name=f"pods-{num_pods}x{hosts_per_pod}")
    for p in range(num_pods):
        switch = topo.add_switch(f"p{p}s")
        for h in range(hosts_per_pod):
            host = topo.add_host(f"p{p}h{h}")
            topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo


def tree(
    depth: int,
    fanout: int,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """A balanced tree of switches with hosts at the leaves.

    ``depth`` counts switch levels; leaf switches get ``fanout`` hosts.
    """
    if depth < 1 or fanout < 1:
        raise TopologyError(f"depth and fanout must be >= 1, got {depth}, {fanout}")
    topo = Topology(name=f"tree-d{depth}f{fanout}")
    counter = {"s": 0, "h": 0}

    def build(level: int):
        counter["s"] += 1
        switch = topo.add_switch(f"s{counter['s']}")
        if level == depth:
            for _ in range(fanout):
                counter["h"] += 1
                host = topo.add_host(f"h{counter['h']}")
                topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
        else:
            for _ in range(fanout):
                child = build(level + 1)
                topo.add_link(child, switch, capacity_bps=capacity_bps, delay_s=delay_s)
        return switch

    build(1)
    return topo


def fat_tree(
    k: int,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """A k-ary fat-tree (Al-Fares et al.): k pods, (k/2)^2 cores,
    k^3/4 hosts.  ``k`` must be even and >= 2.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat-tree k must be even and >= 2, got {k}")
    topo = Topology(name=f"fattree-k{k}")
    half = k // 2
    cores = [
        topo.add_switch(f"core{i + 1}") for i in range(half * half)
    ]
    host_index = 0
    for pod in range(k):
        aggs = [topo.add_switch(f"agg{pod}_{i}") for i in range(half)]
        edges = [topo.add_switch(f"edge{pod}_{i}") for i in range(half)]
        for agg in aggs:
            for edge in edges:
                topo.add_link(agg, edge, capacity_bps=capacity_bps, delay_s=delay_s)
        for i, agg in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                topo.add_link(core, agg, capacity_bps=capacity_bps, delay_s=delay_s)
        for edge in edges:
            for _ in range(half):
                host_index += 1
                host = topo.add_host(f"h{host_index}")
                topo.add_link(host, edge, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo


def leaf_spine(
    num_leaves: int,
    num_spines: int,
    hosts_per_leaf: int = 2,
    leaf_bps: float = DEFAULT_HOST_BPS,
    spine_bps: Optional[float] = None,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """A two-tier leaf-spine Clos: every leaf connects to every spine.

    ``spine_bps`` defaults to ``leaf_bps * hosts_per_leaf / num_spines``
    rounded up to the nearest leaf rate (a mild oversubscription knob).
    """
    if num_leaves < 1 or num_spines < 1:
        raise TopologyError("need >= 1 leaf and >= 1 spine")
    if spine_bps is None:
        spine_bps = leaf_bps * max(1, math.ceil(hosts_per_leaf / num_spines))
    topo = Topology(name=f"leafspine-{num_leaves}x{num_spines}")
    spines = [topo.add_switch(f"spine{i + 1}") for i in range(num_spines)]
    host_index = 0
    for l in range(num_leaves):
        leaf = topo.add_switch(f"leaf{l + 1}")
        for spine in spines:
            topo.add_link(leaf, spine, capacity_bps=spine_bps, delay_s=delay_s)
        for _ in range(hosts_per_leaf):
            host_index += 1
            host = topo.add_host(f"h{host_index}")
            topo.add_link(host, leaf, capacity_bps=leaf_bps, delay_s=delay_s)
    return topo


def full_mesh(
    num_switches: int,
    hosts_per_switch: int = 1,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
) -> Topology:
    """Switches pairwise connected, hosts hanging off each."""
    if num_switches < 2:
        raise TopologyError(f"need >= 2 switches, got {num_switches}")
    topo = Topology(name=f"mesh-{num_switches}")
    switches = [topo.add_switch(f"s{i + 1}") for i in range(num_switches)]
    for i, a in enumerate(switches):
        for b in switches[i + 1 :]:
            topo.add_link(a, b, capacity_bps=capacity_bps, delay_s=delay_s)
    host_index = 0
    for switch in switches:
        for _ in range(hosts_per_switch):
            host_index += 1
            host = topo.add_host(f"h{host_index}")
            topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo


def waxman(
    num_switches: int,
    hosts_per_switch: int = 1,
    alpha: float = 0.4,
    beta: float = 0.4,
    capacity_bps: float = DEFAULT_HOST_BPS,
    delay_s: float = DEFAULT_DELAY_S,
    seed: int = 0,
) -> Topology:
    """A Waxman random graph of switches on the unit square.

    Edge probability ``alpha * exp(-d / (beta * L))`` with L = sqrt(2).
    A spanning chain is added first so the result is always connected.
    """
    if num_switches < 2:
        raise TopologyError(f"need >= 2 switches, got {num_switches}")
    rng = RngRegistry(seed).stream("waxman")
    topo = Topology(name=f"waxman-{num_switches}")
    positions = [(rng.random(), rng.random()) for _ in range(num_switches)]
    switches = [topo.add_switch(f"s{i + 1}") for i in range(num_switches)]
    # Spanning chain for connectivity.
    for a, b in zip(switches, switches[1:]):
        topo.add_link(a, b, capacity_bps=capacity_bps, delay_s=delay_s)
    scale = math.sqrt(2.0)
    for i in range(num_switches):
        for j in range(i + 2, num_switches):  # chain already covers j == i+1
            xi, yi = positions[i]
            xj, yj = positions[j]
            dist = math.hypot(xi - xj, yi - yj)
            if rng.random() < alpha * math.exp(-dist / (beta * scale)):
                topo.add_link(
                    switches[i], switches[j], capacity_bps=capacity_bps, delay_s=delay_s
                )
    host_index = 0
    for switch in switches:
        for _ in range(hosts_per_switch):
            host_index += 1
            host = topo.add_host(f"h{host_index}")
            topo.add_link(host, switch, capacity_bps=capacity_bps, delay_s=delay_s)
    return topo
