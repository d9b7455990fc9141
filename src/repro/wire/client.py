"""A minimal in-repo wire controller.

Tests, CI, and the self-driven loopback demo need a controller on the
other end of the TCP socket without installing one.  This client speaks
the codec's OpenFlow 1.3 profile over plain blocking sockets (one
connection per datapath, handshakes performed in sequence so datapath
binding is deterministic) and hosts an ordinary
:class:`~repro.control.controller.Controller` whose channel is the
client itself (``datapath_ids()`` and ``send(message)`` over those
sockets); the mode picks the app it runs:

* ``learning`` — :class:`repro.control.apps.L2LearningApp` itself, so
  a wire run with this client produces the same run digest as an
  in-proc L2LearningApp run: it is the same code on the far side of a
  socket.
* ``static`` — :class:`StaticRoutesApp`: installs a fixed route list
  proactively and claims no packet-in; a stray one is answered with an
  empty packet-out ("no decision"), so the simulation never stalls on
  the latency budget.

The client is also runnable against an external ``repro serve`` via the
``repro wire-client`` CLI.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
from typing import Dict, List, Optional, Tuple

from ..control.app import ControllerApp
from ..control.apps import L2LearningApp
from ..control.controller import Controller
from ..errors import WireError
from ..net.address import MacAddress
from ..openflow.action import ApplyActions, Output
from ..openflow.match import Match
from ..openflow.messages import (
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    Message,
    PacketIn,
    PacketOut,
    PortStatus,
)
from .codec import WIRE_VERSION, FrameReader, decode, encode

logger = logging.getLogger(__name__)

#: A route dict's match keys -> how each value is parsed.
_ROUTE_MATCH_FIELDS = (
    ("eth_dst", MacAddress),
    ("eth_src", MacAddress),
    ("in_port", int),
)


class StaticRoutesApp(ControllerApp):
    """Install a fixed route list once; claim no packet-in.

    ``routes`` are dicts with ``dpid``, ``out_port`` and optional
    ``eth_dst`` / ``eth_src`` / ``in_port`` / ``priority`` keys (the
    ``wire.client_routes`` scenario field).
    """

    def __init__(
        self, routes: List[dict], priority: int = 10, name: str = "static-routes"
    ) -> None:
        super().__init__(name)
        self.routes = list(routes)
        self.priority = priority

    def start(self) -> None:
        for route in self.routes:
            fields = {
                key: parse(route[key])
                for key, parse in _ROUTE_MATCH_FIELDS
                if key in route
            }
            self.add_flow(
                route["dpid"],
                Match(**fields),
                (ApplyActions((Output(int(route["out_port"])),)),),
                priority=int(route.get("priority", self.priority)),
            )


class _Link:
    """One connected datapath: socket + frame reassembly + identity."""

    __slots__ = ("sock", "reader", "dpid")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = FrameReader()
        self.dpid: Optional[int] = None


class WireControllerClient:
    """Built-in learning-switch / static-routes wire controller.

    Parameters
    ----------
    host, port:
        The ``repro serve`` (or in-run gateway) listen address.
    mode:
        ``"learning"`` or ``"static"``.
    routes:
        For static mode: dicts with ``dpid``, ``out_port`` and optional
        ``eth_dst``/``priority`` keys.
    idle_timeout, priority:
        Handed to the app (static mode: the default route priority).
    restored_ok:
        When True (gateway-internal use), honor the server's
        ``auxiliary_id=1`` restored flag by skipping proactive installs.
    mac_table:
        Learning mode: seeds the app's table, so a restored run's
        client resumes with what it had learned at checkpoint time (see
        WireRuntime.__getstate__).
    """

    def __init__(
        self,
        host: str,
        port: int,
        mode: str = "learning",
        routes: Optional[List[dict]] = None,
        idle_timeout: float = 0.0,
        priority: int = 10,
        connect_timeout_s: float = 10.0,
        restored_ok: bool = True,
        mac_table: Optional[Dict[Tuple[int, MacAddress], int]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.restored_ok = restored_ok
        self.restored = False
        #: The client is its controller's channel: apps see
        #: :meth:`datapath_ids` and :meth:`send` and nothing else.
        self.controller = Controller("wire-client")
        self.controller.attach(self)
        if mode == "learning":
            app = L2LearningApp(idle_timeout=idle_timeout, priority=priority)
            app.mac_table.update(mac_table or {})
        else:  # "static": config validation and the CLI admit no third
            app = StaticRoutesApp(routes or [], priority)
        #: The one app this mode runs (first on the controller, so its
        #: cookie is the one an in-process run's first app gets).
        self.app = self.controller.add_app(app)
        self.stats = {
            "packet_ins": 0,
            "flow_mods": 0,
            "packet_outs": 0,
            "echo_replies": 0,
            "errors_received": 0,
        }
        self._links: List[_Link] = []
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Connect, install proactive state, serve until stopped or the
        server closes every connection."""
        try:
            self.connect()
            self.serve()
        except Exception as exc:  # surfaced via .error by the owner
            self._error = exc
            logger.debug("wire client died", exc_info=True)
        finally:
            self.close()

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def stop(self) -> None:
        self._stop.set()

    def __getstate__(self) -> dict:
        raise TypeError(
            "WireControllerClient holds live sockets and is never part of "
            "a checkpoint; WireRuntime snapshots only the learning app's "
            "mac_table and reconnects a fresh client on restore"
        )

    def close(self) -> None:
        for link in self._links:
            try:
                link.sock.close()
            except OSError:
                pass
        self._links = []

    # ------------------------------------------------------------------
    # What a ControllerApp calls on its channel, over the sockets
    # ------------------------------------------------------------------
    def datapath_ids(self) -> List[int]:
        """The datapaths that connected, in connection order."""
        return [link.dpid for link in self._links]

    def send(self, message: Message) -> None:
        """Southbound send onto the addressed datapath's connection."""
        for link in self._links:
            if link.dpid == message.dpid:
                break
        else:
            raise WireError(f"no connection for dpid {message.dpid}")
        if isinstance(message, FlowMod):
            self.stats["flow_mods"] += 1
        self._send(link, message)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def connect(self) -> List[int]:
        """Open one handshaken connection per datapath; returns the
        bound dpids in connection order."""
        first = self._open_link()
        count = max(1, first[1].reserved)
        self.restored = bool(first[1].auxiliary_id) and self.restored_ok
        for _ in range(count - 1):
            self._open_link()
        if not self.restored:
            self.controller.start()  # every app's proactive installs
        # Fence: the server marks a connection settled on barrier, so
        # the simulation only starts once installs are applied.
        for link in self._links:
            self._send(link, BarrierRequest(dpid=link.dpid))
        return [link.dpid for link in self._links]

    def _open_link(self) -> Tuple[_Link, FeaturesReply]:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise WireError(
                f"cannot connect to wire server {self.host}:{self.port}: {exc}"
            ) from None
        try:
            # Small latency-bound frames: disable Nagle (see server).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        sock.settimeout(self.connect_timeout_s)
        link = _Link(sock)
        self._links.append(link)
        self._send(link, Hello(dpid=0, version=WIRE_VERSION))
        self._send(link, FeaturesRequest(dpid=0))
        reply = self._await_features(link)
        link.dpid = reply.dpid
        return link, reply

    def _await_features(self, link: _Link) -> FeaturesReply:
        while True:
            message = self._recv(link)
            if isinstance(message, FeaturesReply):
                return message
            if isinstance(message, Hello):
                if message.version != WIRE_VERSION:
                    raise WireError(
                        f"server speaks OpenFlow version {message.version}, "
                        f"not {WIRE_VERSION}"
                    )
                continue
            if isinstance(message, EchoRequest):
                self._echo(link, message)
                continue
            if isinstance(message, ErrorMsg):
                raise WireError(
                    f"handshake rejected: {message.error_type}: "
                    f"{message.detail}"
                )
            raise WireError(
                f"unexpected {type(message).__name__} during handshake"
            )

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    def serve(self, poll_s: float = 0.05) -> None:
        """React to server messages until stopped or disconnected."""
        while not self._stop.is_set() and self._links:
            socks = [link.sock for link in self._links]
            try:
                readable, _, _ = select.select(socks, [], [], poll_s)
            except OSError:
                break
            for sock in readable:
                link = next(
                    (l for l in self._links if l.sock is sock), None
                )
                if link is None:
                    continue
                try:
                    data = sock.recv(65536)
                except OSError:
                    data = b""
                if not data:
                    self._drop(link)
                    continue
                link.reader.feed(data)
                try:
                    for frame in link.reader.frames():
                        self._handle(link, decode(frame))
                except WireError:
                    logger.debug(
                        "client dropping unframeable connection",
                        exc_info=True,
                    )
                    self._drop(link)

    def _drop(self, link: _Link) -> None:
        try:
            link.sock.close()
        except OSError:
            pass
        if link in self._links:
            self._links.remove(link)

    def _handle(self, link: _Link, message: Message) -> None:
        if isinstance(message, PacketIn):
            self.stats["packet_ins"] += 1
            # Whatever an app installs goes out before the answering
            # packet-out; TCP keeps the order, so the switch applies it
            # first, as when the app runs in-process.
            self._answer(link, message, self.controller.on_packet_in(message))
        elif isinstance(message, EchoRequest):
            self._echo(link, message)
        elif isinstance(message, ErrorMsg):
            self.stats["errors_received"] += 1
            logger.debug(
                "server error: %s: %s", message.error_type, message.detail
            )
        elif isinstance(message, PortStatus):
            self.controller.on_port_status(message)
        elif isinstance(message, FlowRemoved):
            self.controller.on_flow_removed(message)
        # BarrierReply / stats replies / duplicate Hello: nothing to do.

    def _echo(self, link: _Link, message: EchoRequest) -> None:
        self.stats["echo_replies"] += 1
        self._send(
            link,
            EchoReply(
                dpid=message.dpid, xid=message.xid, payload=message.payload
            ),
        )

    def _answer(
        self, link: _Link, message: PacketIn, ports: Optional[List[int]]
    ) -> None:
        """Answer a packet-in.  ``ports=None`` (no decision) is an empty
        packet-out — the gateway maps it back to None."""
        self.stats["packet_outs"] += 1
        self._send(
            link,
            PacketOut(
                dpid=message.dpid,
                in_port=message.in_port,
                out_ports=tuple(ports or ()),
                buffer_id=message.xid,
            ),
        )

    # ------------------------------------------------------------------
    # Socket primitives
    # ------------------------------------------------------------------
    def _send(self, link: _Link, message: Message) -> None:
        try:
            link.sock.sendall(encode(message))
        except OSError as exc:
            raise WireError(f"wire client send failed: {exc}") from None

    def _recv(self, link: _Link) -> Message:
        """Blocking read of one message (handshake phase only)."""
        while True:
            for frame in link.reader.frames():
                return decode(frame)
            try:
                data = link.sock.recv(65536)
            except socket.timeout:
                raise WireError(
                    "timed out waiting for a server message"
                ) from None
            except OSError as exc:
                raise WireError(f"wire client recv failed: {exc}") from None
            if not data:
                raise WireError("server closed the connection mid-handshake")
            link.reader.feed(data)
