"""Links and ports.

A :class:`Link` is a full-duplex cable between two ports with a capacity
(bits per second) and a propagation delay.  Each direction is modelled as
an independent :class:`LinkDirection` that carries its own utilization
bookkeeping, because the flow-level engine allocates bandwidth per
direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..errors import LinkError, PortError

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


class Port:
    """A numbered attachment point on a node.

    Ports carry OpenFlow-style rx/tx counters; the engines update them as
    traffic crosses the port.
    """

    __slots__ = (
        "node",
        "number",
        "link",
        "up",
        "rx_packets",
        "tx_packets",
        "rx_bytes",
        "tx_bytes",
        "rx_dropped",
        "tx_dropped",
    )

    def __init__(self, node: "Node", number: int) -> None:
        if number < 1:
            raise PortError(f"port numbers start at 1, got {number}")
        self.node = node
        self.number = number
        self.link: Optional[Link] = None
        self.up = True
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0

    @property
    def connected(self) -> bool:
        return self.link is not None

    @property
    def live(self) -> bool:
        """True when traffic can leave here: the port is up and the
        link attached to it is up."""
        link = self.link
        return link is not None and self.up and link.up

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the other end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_port(self)

    def stats(self) -> dict:
        """A snapshot of this port's counters (OpenFlow port-stats shape)."""
        return {
            "port_no": self.number,
            "rx_packets": self.rx_packets,
            "tx_packets": self.tx_packets,
            "rx_bytes": self.rx_bytes,
            "tx_bytes": self.tx_bytes,
            "rx_dropped": self.rx_dropped,
            "tx_dropped": self.tx_dropped,
        }

    def reset_stats(self) -> None:
        self.rx_packets = self.tx_packets = 0
        self.rx_bytes = self.tx_bytes = 0
        self.rx_dropped = self.tx_dropped = 0

    def __repr__(self) -> str:
        return f"<Port {self.node.name}:{self.number}>"


class LinkDirection:
    """One direction of a link: ``src_port`` → ``dst_port``.

    The flow-level engine writes ``allocated_bps`` (sum of max-min rates
    crossing this direction) when loads are read, not at every event:
    after its ``sync_statistics`` (or a ``Horse.sync_statistics``), in
    ``background_load`` and before each link-sampling tick of the
    statistics collector, which samples :attr:`utilization` from it.
    Between those reads the field may lag the last resolve.
    """

    __slots__ = ("link", "src_port", "dst_port", "allocated_bps")

    def __init__(self, link: "Link", src_port: Port, dst_port: Port) -> None:
        self.link = link
        self.src_port = src_port
        self.dst_port = dst_port
        self.allocated_bps = 0.0

    @property
    def capacity_bps(self) -> float:
        return self.link.capacity_bps

    @property
    def delay_s(self) -> float:
        return self.link.delay_s

    @property
    def up(self) -> bool:
        return self.link.up

    @property
    def utilization(self) -> float:
        """Allocated share of capacity in [0, 1+] (can exceed 1 only if a
        caller bypasses the fair-share solver)."""
        if self.link.capacity_bps <= 0:
            return 0.0
        return self.allocated_bps / self.link.capacity_bps

    @property
    def key(self) -> Tuple[str, int, str, int]:
        """A hashable identity: (src node, src port, dst node, dst port)."""
        return (
            self.src_port.node.name,
            self.src_port.number,
            self.dst_port.node.name,
            self.dst_port.number,
        )

    def __repr__(self) -> str:
        return (
            f"<LinkDirection {self.src_port.node.name}:{self.src_port.number}"
            f"->{self.dst_port.node.name}:{self.dst_port.number}>"
        )


class Link:
    """A full-duplex link between two ports.

    Parameters
    ----------
    port_a, port_b:
        The endpoints.  Both must be unconnected.
    capacity_bps:
        Line rate of each direction, in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    """

    __slots__ = ("port_a", "port_b", "capacity_bps", "delay_s", "up", "_ab", "_ba")

    def __init__(
        self,
        port_a: Port,
        port_b: Port,
        capacity_bps: float = 1e9,
        delay_s: float = 1e-6,
    ) -> None:
        if capacity_bps <= 0:
            raise LinkError(f"link capacity must be > 0, got {capacity_bps}")
        if delay_s < 0:
            raise LinkError(f"link delay must be >= 0, got {delay_s}")
        if port_a.connected or port_b.connected:
            raise LinkError(
                f"cannot link already-connected port(s): {port_a!r}, {port_b!r}"
            )
        if port_a is port_b:
            raise LinkError("cannot link a port to itself")
        self.port_a = port_a
        self.port_b = port_b
        self.capacity_bps = float(capacity_bps)
        self.delay_s = float(delay_s)
        self.up = True
        port_a.link = self
        port_b.link = self
        self._ab = LinkDirection(self, port_a, port_b)
        self._ba = LinkDirection(self, port_b, port_a)

    def other_port(self, port: Port) -> Port:
        """The endpoint opposite ``port``."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise LinkError(f"{port!r} is not an endpoint of {self!r}")

    def direction_from(self, port: Port) -> LinkDirection:
        """The transmit direction leaving ``port``."""
        if port is self.port_a:
            return self._ab
        if port is self.port_b:
            return self._ba
        raise LinkError(f"{port!r} is not an endpoint of {self!r}")

    @property
    def directions(self) -> Tuple[LinkDirection, LinkDirection]:
        return (self._ab, self._ba)

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the link (both directions)."""
        self.up = up

    @property
    def endpoints(self) -> Tuple["Node", "Node"]:
        return (self.port_a.node, self.port_b.node)

    def __repr__(self) -> str:
        a, b = self.port_a, self.port_b
        state = "up" if self.up else "DOWN"
        return (
            f"<Link {a.node.name}:{a.number}<->{b.node.name}:{b.number} "
            f"{self.capacity_bps / 1e9:.3g}Gbps {state}>"
        )
