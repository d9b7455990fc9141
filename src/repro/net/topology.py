"""The topology container.

Owns every node and link, provides path computation (shortest path, all
equal-cost shortest paths, k-shortest simple paths), adjacency queries
used by the engines, and link failure/recovery — the "Topology" building
block of the poster's data plane.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import LinkError, NodeNotFoundError, TopologyError
from .address import IPv4Address, MacAddress, ip_from_index, mac_from_index
from .link import Link, LinkDirection, Port
from .node import Host, Node, Switch

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

NodeRef = Union[str, Node]


class Topology:
    """A mutable network topology of hosts, switches, and duplex links.

    Examples
    --------
    >>> topo = Topology()
    >>> s1 = topo.add_switch("s1")
    >>> h1 = topo.add_host("h1")
    >>> h2 = topo.add_host("h2")
    >>> _ = topo.add_link("h1", "s1")
    >>> _ = topo.add_link("h2", "s1")
    >>> [n.name for n in topo.shortest_path("h1", "h2")]
    ['h1', 's1', 'h2']
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        #: Switches in registration order, and dpid -> the first switch
        #: registered with it (lookups on the engines' per-flow paths).
        self._switches: List[Switch] = []
        self._switch_by_dpid: Dict[int, Switch] = {}
        self._links: List[Link] = []
        self._next_dpid = 1
        self._next_host_index = 0
        #: Adjacency: node name -> {neighbor name: list of links}
        self._adj: Dict[str, Dict[str, List[Link]]] = {}
        self._path_cache: Dict[Tuple[str, str], List[List[str]]] = {}
        #: Bumped by every :meth:`fail_link` / :meth:`restore_link`:
        #: engines stamp what they derived from link liveness with it.
        self.link_generation = 0

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_switch(self, name: Optional[str] = None, dpid: Optional[int] = None) -> Switch:
        """Create a switch; dpid defaults to the next unused id."""
        if dpid is None:
            dpid = self._next_dpid
        self._next_dpid = max(self._next_dpid, dpid + 1)
        if name is None:
            name = f"s{dpid}"
        switch = Switch(name, dpid)
        self._register(switch)
        return switch

    def add_host(
        self,
        name: Optional[str] = None,
        mac: Optional[MacAddress] = None,
        ip: Optional[IPv4Address] = None,
    ) -> Host:
        """Create a host; MAC/IP default deterministically from an index."""
        index = self._next_host_index
        self._next_host_index += 1
        if name is None:
            name = f"h{index + 1}"
        host = Host(
            name,
            mac if mac is not None else mac_from_index(index),
            ip if ip is not None else ip_from_index(index),
        )
        self._register(host)
        return host

    def _register(self, node: Node) -> None:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        self._nodes[node.name] = node
        if isinstance(node, Switch):
            self._switches.append(node)
            self._switch_by_dpid.setdefault(node.dpid, node)
        self._adj[node.name] = {}
        self._path_cache.clear()

    def node(self, ref: NodeRef) -> Node:
        """Resolve a node by name or pass a node through."""
        if isinstance(ref, Node):
            return ref
        try:
            return self._nodes[ref]
        except KeyError:
            raise NodeNotFoundError(f"no node named {ref!r} in {self.name}") from None

    def switch(self, ref: NodeRef) -> Switch:
        node = self.node(ref)
        if not isinstance(node, Switch):
            raise TopologyError(f"{node.name} is not a switch")
        return node

    def host(self, ref: NodeRef) -> Host:
        node = self.node(ref)
        if not isinstance(node, Host):
            raise TopologyError(f"{node.name} is not a host")
        return node

    def switch_by_dpid(self, dpid: int) -> Switch:
        try:
            return self._switch_by_dpid[dpid]
        except KeyError:
            raise NodeNotFoundError(f"no switch with dpid {dpid}") from None

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def hosts(self) -> List[Host]:
        return [n for n in self._nodes.values() if isinstance(n, Host)]

    @property
    def switches(self) -> List[Switch]:
        return list(self._switches)

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    def __contains__(self, ref: NodeRef) -> bool:
        name = ref.name if isinstance(ref, Node) else ref
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def add_link(
        self,
        a: NodeRef,
        b: NodeRef,
        capacity_bps: float = 1e9,
        delay_s: float = 1e-6,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Link:
        """Connect two nodes with a new duplex link, creating ports."""
        node_a = self.node(a)
        node_b = self.node(b)
        if node_a is node_b:
            raise LinkError(f"self-loop on {node_a.name} is not allowed")
        pa = node_a.add_port(port_a)
        pb = node_b.add_port(port_b)
        link = Link(pa, pb, capacity_bps=capacity_bps, delay_s=delay_s)
        self._links.append(link)
        self._adj[node_a.name].setdefault(node_b.name, []).append(link)
        self._adj[node_b.name].setdefault(node_a.name, []).append(link)
        self._path_cache.clear()
        return link

    def links_between(self, a: NodeRef, b: NodeRef) -> List[Link]:
        """All parallel links between two nodes (possibly empty)."""
        name_a = self.node(a).name
        name_b = self.node(b).name
        return list(self._adj.get(name_a, {}).get(name_b, []))

    def link_between(self, a: NodeRef, b: NodeRef) -> Link:
        """The unique link between two nodes; raises if zero or many."""
        links = self.links_between(a, b)
        if not links:
            raise LinkError(f"no link between {self.node(a).name} and {self.node(b).name}")
        if len(links) > 1:
            raise LinkError(
                f"{len(links)} parallel links between "
                f"{self.node(a).name} and {self.node(b).name}; use links_between"
            )
        return links[0]

    def neighbors(self, ref: NodeRef, up_only: bool = True) -> List[Node]:
        """Adjacent nodes, optionally restricted to up links."""
        name = self.node(ref).name
        result = []
        for other, links in self._adj[name].items():
            if not up_only or any(l.up for l in links):
                result.append(self._nodes[other])
        return result

    def egress_port(self, src: NodeRef, dst: NodeRef) -> Port:
        """The port on ``src`` whose (first up) link leads to ``dst``."""
        links = self.links_between(src, dst)
        src_node = self.node(src)
        for link in links:
            if not link.up:
                continue
            if link.port_a.node is src_node:
                return link.port_a
            return link.port_b
        raise LinkError(
            f"no up link from {src_node.name} to {self.node(dst).name}"
        )

    def directions(self) -> Iterator[LinkDirection]:
        """Iterate every link direction in the topology."""
        for link in self._links:
            yield from link.directions

    def edge_ports(self) -> List[Tuple[Switch, int]]:
        """(switch, port-number) pairs whose link attaches a host.

        These are the fabric's ingress points — where traffic genuinely
        enters — used by the data-plane static analyzer to seed its
        forwarding-graph walks.
        """
        points: List[Tuple[Switch, int]] = []
        for switch in self.switches:
            for number, port in sorted(switch.ports.items()):
                peer = port.peer
                if peer is not None and isinstance(peer.node, Host):
                    points.append((switch, number))
        return points

    def attachment(self, host: NodeRef) -> Tuple[Switch, int]:
        """The switch-side (switch, port-number) where a host plugs in.

        Resolves the host's uplink to the port on the adjacent switch —
        the port-to-link resolution the analyzer (and reactive apps)
        need to reason about where a host's traffic enters the fabric.
        """
        uplink = self.host(host).uplink_port
        peer = uplink.peer
        if peer is None or not isinstance(peer.node, Switch):
            raise TopologyError(
                f"host {self.host(host).name} is not attached to a switch"
            )
        return peer.node, peer.number

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_link(self, a: NodeRef, b: NodeRef) -> Link:
        """Administratively bring down the (unique) link between a and b."""
        link = self.link_between(a, b)
        link.set_up(False)
        self._path_cache.clear()
        self.link_generation += 1
        return link

    def restore_link(self, a: NodeRef, b: NodeRef) -> Link:
        """Bring the (unique) link between a and b back up."""
        link = self.link_between(a, b)
        link.set_up(True)
        self._path_cache.clear()
        self.link_generation += 1
        return link

    # ------------------------------------------------------------------
    # Path computation
    # ------------------------------------------------------------------
    def shortest_path(self, src: NodeRef, dst: NodeRef) -> List[Node]:
        """One hop-count shortest path over up links (BFS, deterministic
        by insertion order).  Raises TopologyError when unreachable."""
        paths = self.equal_cost_paths(src, dst, limit=1)
        return [self._nodes[n] for n in paths[0]]

    def equal_cost_paths(
        self, src: NodeRef, dst: NodeRef, limit: Optional[int] = None
    ) -> List[List[str]]:
        """All hop-count-shortest paths (names), up to ``limit``.

        Results are cached until the topology mutates; ECMP apps rely on
        the stable ordering for deterministic hashing.
        """
        src_name = self.node(src).name
        dst_name = self.node(dst).name
        key = (src_name, dst_name)
        if key not in self._path_cache:
            self._path_cache[key] = self._bfs_all_shortest(src_name, dst_name)
        paths = self._path_cache[key]
        if not paths:
            raise TopologyError(f"no path from {src_name} to {dst_name}")
        if limit is not None:
            return [list(p) for p in paths[:limit]]
        return [list(p) for p in paths]

    def _bfs_all_shortest(self, src: str, dst: str) -> List[List[str]]:
        if src == dst:
            return [[src]]
        # BFS computing distance and predecessor sets.
        dist: Dict[str, int] = {src: 0}
        preds: Dict[str, List[str]] = {src: []}
        frontier = [src]
        while frontier and dst not in dist:
            next_frontier: List[str] = []
            for name in frontier:
                for other, links in self._adj[name].items():
                    if not any(l.up for l in links):
                        continue
                    if other not in dist:
                        dist[other] = dist[name] + 1
                        preds[other] = [name]
                        next_frontier.append(other)
                    elif dist[other] == dist[name] + 1:
                        preds[other].append(name)
            frontier = next_frontier
        if dst not in dist:
            return []
        # Unwind predecessor DAG into explicit paths.
        paths: List[List[str]] = []
        stack: List[Tuple[str, List[str]]] = [(dst, [dst])]
        while stack:
            name, suffix = stack.pop()
            if name == src:
                paths.append(list(reversed(suffix)))
                continue
            for pred in preds[name]:
                stack.append((pred, suffix + [pred]))
        paths.sort()
        return paths

    def k_shortest_paths(self, src: NodeRef, dst: NodeRef, k: int) -> List[List[str]]:
        """Up to ``k`` shortest simple paths by hop count, shortest first.

        Yen's algorithm over the up links, parallel links collapsed to
        one neighbour.  Each spur is a bidirectional BFS, and candidates
        of one length leave the heap in the order they were found, so
        the list (and its tie order) is the one
        ``networkx.shortest_simple_paths`` gives on
        ``to_networkx(up_only=True)``.  Raises TopologyError when
        unreachable."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        src_name = self.node(src).name
        dst_name = self.node(dst).name
        # Neighbours in the order of each pair's first up link.
        adj: Dict[str, Dict[str, None]] = {name: {} for name in self._nodes}
        for link in self._links:
            if link.up:
                a, b = link.endpoints
                adj[a.name][b.name] = None
                adj[b.name][a.name] = None
        first = _bidirectional_bfs(adj, src_name, dst_name, set(), set())
        if first is None:
            raise TopologyError(f"no path from {src_name} to {dst_name}")
        paths = [first]
        queued = {tuple(first)}
        candidates: List[Tuple[int, int, List[str]]] = []
        while len(paths) < k:
            prev = paths[-1]
            # Both sets grow across the spur nodes of ``prev``, as in Yen.
            ignore_nodes: Set[str] = set()
            ignore_edges: Set[Tuple[str, str]] = set()
            for i in range(1, len(prev)):
                root = prev[:i]
                for path in paths:
                    if path[:i] == root:
                        ignore_edges.add((path[i - 1], path[i]))
                        ignore_edges.add((path[i], path[i - 1]))
                spur = _bidirectional_bfs(
                    adj, root[-1], dst_name, ignore_nodes, ignore_edges
                )
                if spur is not None:
                    path = root[:-1] + spur
                    if tuple(path) not in queued:
                        queued.add(tuple(path))
                        heapq.heappush(candidates, (len(path), len(queued), path))
                ignore_nodes.add(root[-1])
            if not candidates:
                break
            paths.append(heapq.heappop(candidates)[2])
        return paths

    def path_links(self, path: Sequence[NodeRef]) -> List[LinkDirection]:
        """The transmit link-directions along a node path."""
        names = [self.node(p).name for p in path]
        result: List[LinkDirection] = []
        for a, b in zip(names, names[1:]):
            port = self.egress_port(a, b)
            assert port.link is not None
            result.append(port.link.direction_from(port))
        return result

    # ------------------------------------------------------------------
    # Interop / summary
    # ------------------------------------------------------------------
    def to_networkx(self, up_only: bool = False) -> "nx.Graph":
        """Export to a networkx graph (node names, capacity/delay attrs)."""
        networkx = require_networkx()

        multi = self._has_parallel_links()
        graph = networkx.MultiGraph() if multi else networkx.Graph()
        for node in self._nodes.values():
            graph.add_node(node.name, kind=type(node).__name__.lower())
        for link in self._links:
            if up_only and not link.up:
                continue
            a, b = link.endpoints
            graph.add_edge(
                a.name, b.name, capacity_bps=link.capacity_bps, delay_s=link.delay_s
            )
        return graph

    def _has_parallel_links(self) -> bool:
        return any(
            len(links) > 1 for nbrs in self._adj.values() for links in nbrs.values()
        )

    def summary(self) -> dict:
        """Counts and aggregate capacity, for logs and experiment records."""
        return {
            "name": self.name,
            "hosts": len(self.hosts),
            "switches": len(self.switches),
            "links": len(self._links),
            "total_capacity_bps": sum(l.capacity_bps for l in self._links),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"<Topology {s['name']!r} hosts={s['hosts']} "
            f"switches={s['switches']} links={s['links']}>"
        )


def require_networkx():
    """Import networkx, which only the interop exports use, or raise an
    ImportError naming the extra that installs it."""
    try:
        import networkx
    except ImportError:
        raise ImportError(
            "networkx is not installed; to_networkx and GraphML export "
            "need it: pip install 'repro[graph]'"
        ) from None
    return networkx


def _bidirectional_bfs(
    adj: Dict[str, Dict[str, None]],
    source: str,
    target: str,
    ignore_nodes: Set[str],
    ignore_edges: Set[Tuple[str, str]],
) -> Optional[List[str]]:
    """One hop-count shortest path avoiding the ignored nodes and edges,
    or None.  Grows the smaller fringe a level at a time and stops at
    the first node both searches have seen, forward side first on equal
    fringes: the tie order of networkx's ``_bidirectional_pred_succ``."""
    if source == target:
        return [source]
    pred: Dict[str, Optional[str]] = {source: None}
    succ: Dict[str, Optional[str]] = {target: None}
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, theirs = (pred, succ) if side == 0 else (succ, pred)
        level, fringes[side] = fringes[side], []
        for v in level:
            for w in adj[v]:
                if w in ignore_nodes or (v, w) in ignore_edges:
                    continue
                if w not in mine:
                    mine[w] = v
                    fringes[side].append(w)
                if w in theirs:
                    path = [w]
                    while pred[path[-1]] is not None:
                        path.append(pred[path[-1]])
                    path.reverse()
                    while succ[path[-1]] is not None:
                        path.append(succ[path[-1]])
                    return path
    return None
