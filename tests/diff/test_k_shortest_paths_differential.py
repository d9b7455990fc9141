"""Differential test: ``Topology.k_shortest_paths`` vs networkx.

The oracle is ``networkx.shortest_simple_paths`` on
``topology.to_networkx(up_only=True)``, taken up to ``k`` and mapped to
``TopologyError`` when there is no path.  The graph is passed as
exported: wrapping it in ``networkx.Graph(...)`` reorders adjacency and
so the tie order among equal-length paths.  The lists must be equal,
element for element, because ``AppPeeringApp`` installs ``paths[k-1]``.

Inputs are the generator fabrics (intact, and with every fifth link
down), IXP fabrics of 4, 24 and 96 members, and hypothesis-drawn simple
topologies with about one link in five down; ``k`` runs over 1..8 and
``src == dst`` is drawn too.  networkx refuses multigraphs, so parallel
links are checked two ways: against the oracle on a copy that keeps
only each pair's first up link, and by the properties every answer must
have (simple, over up links, from ``src`` to ``dst``, no shorter than
the path before it).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.ixp import build_ixp
from repro.net import Topology
from repro.net.generators import fat_tree, full_mesh, leaf_spine, tree

networkx = pytest.importorskip("networkx")

FABRICS = {
    "leaf_spine": lambda: leaf_spine(4, 3, hosts_per_leaf=2),
    "fat_tree": lambda: fat_tree(4),
    "tree": lambda: tree(3, 3),
    "full_mesh": lambda: full_mesh(5, hosts_per_switch=1),
    "ixp4": lambda: build_ixp(4).topology,
    "ixp24": lambda: build_ixp(24).topology,
    "ixp96": lambda: build_ixp(96).topology,
}


def oracle(topology, src, dst, k):
    graph = topology.to_networkx(up_only=True)
    paths = []
    try:
        for path in networkx.shortest_simple_paths(graph, src, dst):
            paths.append(path)
            if len(paths) >= k:
                break
    except networkx.NetworkXNoPath:
        pass
    if not paths:
        raise TopologyError(f"no path from {src} to {dst}")
    return paths


def answer(fn, topology, src, dst, k):
    try:
        return fn(topology, src, dst, k)
    except TopologyError:
        return TopologyError


def assert_agrees(topology, src, dst, k):
    expected = answer(oracle, topology, src, dst, k)
    got = answer(Topology.k_shortest_paths, topology, src, dst, k)
    assert got == expected, (src, dst, k)


@pytest.mark.parametrize("degraded", [False, True], ids=["intact", "degraded"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_fabrics_agree_with_networkx(fabric, degraded):
    topology = FABRICS[fabric]()
    if degraded:
        for link in topology.links[::5]:
            link.set_up(False)
    names = [node.name for node in topology.nodes]
    rng = random.Random(fabric)
    for _ in range(30):
        src = rng.choice(names)
        dst = src if rng.random() < 0.1 else rng.choice(names)
        assert_agrees(topology, src, dst, rng.randint(1, 8))


def build(nodes, links):
    topology = Topology()
    for i in range(nodes):
        topology.add_switch(f"s{i}")
    for a, b, up in links:
        topology.add_link(f"s{a}", f"s{b}").set_up(up)
    return topology


@st.composite
def topologies(draw, parallel):
    """(node count, [(a, b, up)]) with about one link in five down;
    with ``parallel`` a pair may be linked more than once."""
    nodes = draw(st.integers(min_value=1, max_value=8))
    pairs = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    if not pairs:
        return nodes, []
    chosen = draw(st.lists(st.sampled_from(pairs), unique=not parallel, max_size=20))
    links = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        links.append((a, b, draw(st.integers(0, 4)) > 0))
    return nodes, links


queries = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(topologies(parallel=False), st.lists(queries, min_size=1, max_size=4))
def test_random_simple_topologies_agree_with_networkx(spec, asks):
    nodes, links = spec
    topology = build(nodes, links)
    for src, dst, k in asks:
        assert_agrees(topology, f"s{src % nodes}", f"s{dst % nodes}", k)


@settings(max_examples=200, deadline=None)
@given(topologies(parallel=True), st.lists(queries, min_size=1, max_size=4))
def test_parallel_links_collapse_to_one_neighbour(spec, asks):
    nodes, links = spec
    topology = build(nodes, links)
    # Each pair's first up link, in link order: the neighbour order the
    # collapsed adjacency has.
    first_up = {}
    for a, b, up in links:
        if up:
            first_up.setdefault(frozenset((a, b)), (a, b, True))
    simple = build(nodes, list(first_up.values()))
    for src, dst, k in asks:
        src, dst = f"s{src % nodes}", f"s{dst % nodes}"
        got = answer(Topology.k_shortest_paths, topology, src, dst, k)
        assert got == answer(oracle, simple, src, dst, k)
        if got is TopologyError:
            continue
        assert 1 <= len(got) <= k
        assert len({tuple(path) for path in got}) == len(got)
        for path in got:
            assert path[0] == src and path[-1] == dst
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert any(link.up for link in topology.links_between(a, b))
        assert [len(p) for p in got] == sorted(len(p) for p in got)
        assert len(got[0]) == len(topology.shortest_path(src, dst))
