"""Bridges the control channel onto the wire.

Two classes share the work:

* :class:`WireRuntime` owns the moving parts — the TCP server, the
  :class:`~repro.wire.timegate.TimeGate`, the optional built-in client
  thread — and implements the simulation-thread logic: sending
  northbound frames, draining the server's inbox, and applying decoded
  southbound messages through the channel's public entry points.
* :class:`WireTransport` is the thin
  :class:`~repro.control.transport.ControlTransport` adapter the
  channel calls; it delegates everything to the runtime.

Threading contract: switch pipelines are only ever mutated from the
simulation thread.  The asyncio thread decodes frames and queues them;
this module's methods (all called on the simulation thread) drain the
queue and apply, so a wire run executes control messages with exactly
the same semantics — and the same channel stats — as an in-process run.

Answer semantics: a packet-out whose ``buffer_id`` names a packet-in
xid *answers* that packet-in.  With ``dilation == 0`` the simulation
thread waits inline for the answer, so the reply takes effect at the
same simulated instant as the in-process synchronous channel — which is
what makes wire runs digest-identical to in-proc runs.  An answering
packet-out with no output ports means "no decision" (the in-process
``None``).  With ``dilation > 0`` packet-ins do not block; answers are
collected at sync-quantum boundaries and the measured wall round trip,
times the dilation factor, is charged as simulated latency on the
packet-out delivery.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..control.transport import ControlTransport
from ..core.config import WireConfig
from ..errors import ControlPlaneError, WireError
from ..openflow.messages import (
    ErrorMsg,
    Message,
    PacketIn,
    PacketOut,
)
from .client import WireControllerClient
from .server import WireServer
from .timegate import TimeGate

#: Sentinel distinguishing "this message was not the awaited answer"
#: from a real answer of None (= controller made no decision).
_NO_ANSWER = object()


class WireTransport(ControlTransport):
    """ControlTransport adapter over a :class:`WireRuntime`."""

    external = True

    def __init__(self, runtime: "WireRuntime") -> None:
        self.runtime = runtime

    def packet_in(self, message: PacketIn) -> Optional[List[int]]:
        return self.runtime.handle_packet_in(message)

    def port_status(self, message) -> None:
        self.runtime.forward_northbound(message)

    def flow_removed(self, message) -> None:
        self.runtime.forward_northbound(message)

    def start(self) -> None:
        self.runtime.start()

    def stop(self) -> None:
        self.runtime.shutdown()


class WireRuntime:
    """Everything the wire gateway needs at run time.

    Parameters
    ----------
    channel:
        The control channel whose northbound events go on the wire.
    wire_config:
        The run's :class:`~repro.core.config.WireConfig`: ``listen``,
        the three time-gate fields (see :class:`TimeGate`), and
        ``client`` / ``client_routes`` (None waits for an external
        controller; a mode runs the built-in client in a thread against
        our own listener, the self-driven loopback used by tests, CI,
        and ``examples/scenarios/wire_demo.json``).
    restored:
        True when this runtime was rebuilt from a checkpoint: new
        connections advertise ``auxiliary_id=1`` so controllers skip
        proactive installs (the rules are in the restored pipelines).
    """

    def __init__(
        self,
        channel,
        wire_config: WireConfig,
        restored: bool = False,
    ) -> None:
        self.channel = channel
        self.listen = wire_config.parsed_listen()
        self.gate = TimeGate(wire_config)
        self.client_mode = wire_config.client
        self.client_routes = list(wire_config.client_routes or [])
        self.restored = restored
        self.transport = WireTransport(self)
        self.bound_address: Optional[Tuple[str, int]] = None
        #: Optional callable invoked with (host, port) once the listener
        #: is up — the ``repro serve`` CLI prints the address here so an
        #: external controller knows where to connect.  Not checkpointed.
        self.on_listening = None
        self.counters = {
            "packet_ins_sent": 0,
            "answers": 0,
            "late_answers": 0,
            "dropped_packet_outs": 0,
            "southbound_applied": 0,
            "southbound_errors": 0,
            "send_failures": 0,
            "syncs": 0,
        }
        #: xid -> PacketIn awaiting (or missed) an answer.
        self._pending: Dict[int, PacketIn] = {}
        self._server: Optional[WireServer] = None
        self._client: Optional[WireControllerClient] = None
        self._client_thread: Optional[threading.Thread] = None
        #: Built-in client state carried across a checkpoint (the client
        #: itself lives outside the snapshot; its learning app's MAC
        #: table is plain data and restoring it keeps restored runs
        #: bitwise-identical to uninterrupted ones).
        self._client_state: Optional[dict] = None

    # ------------------------------------------------------------------
    # Lifecycle (simulation thread)
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None and self._server.running

    @property
    def idle(self) -> bool:
        """No round trips outstanding and nothing queued to apply."""
        if self._server is None:
            return True
        return self.gate.outstanding == 0 and self._server.inbox_size == 0

    def start(self) -> None:
        """Bring up the listener (and built-in client), then wait for
        every datapath to connect and finish its proactive installs.
        Idempotent; called again after checkpoint restore to lazily
        re-establish connections."""
        if self.running:
            return
        dpids = self.channel.datapath_ids()
        self._server = WireServer(
            dpids,
            host=self.listen[0],
            port=self.listen[1],
            restored=self.restored,
        )
        self.bound_address = self._server.start()
        if self.on_listening is not None:
            self.on_listening(self.bound_address)
        if self.client_mode is not None:
            self._client = WireControllerClient(
                self.bound_address[0],
                self.bound_address[1],
                mode=self.client_mode,
                routes=self.client_routes,
                restored_ok=True,
                mac_table=(self._client_state or {}).get("mac_table"),
            )
            self._client_thread = threading.Thread(
                target=self._client.run,
                name="repro-wire-client",
                daemon=True,
            )
            self._client_thread.start()
        self._settle()

    def shutdown(self) -> None:
        """Stop the built-in client and the server; connections close."""
        if self._client is not None:
            self._client.stop()
        if self._client_thread is not None:
            self._client_thread.join(timeout=10.0)
            self._client_thread = None
        if self._server is not None:
            self._server.stop()

    def _settle(self) -> None:
        """Wait for connections to bind and apply their proactive
        installs (each connection signals readiness with a barrier)."""
        budget = self.gate.latency_budget_s
        server = self._server
        if not server.wait_bound(budget):
            bound = server.bound_dpids
            raise WireError(
                f"only {len(bound)}/{len(server.dpids)} datapaths "
                f"connected within {budget}s (bound: {bound})"
            )
        deadline = _monotonic() + budget
        while not server.wait_settled(0.0):
            message = server.wait_message(
                min(_monotonic() + 0.05, deadline)
            )
            if message is not None:
                self._apply_one(message)
            elif _monotonic() >= deadline:
                # An external controller that never barriers: proceed
                # with whatever it has installed so far.
                break
        for message in server.pop_messages():
            self._apply_one(message)

    # ------------------------------------------------------------------
    # Northbound (simulation thread)
    # ------------------------------------------------------------------
    def handle_packet_in(self, message: PacketIn) -> Optional[List[int]]:
        """Ship a packet-in to the controller; block for the answer in
        synchronous (dilation=0) mode."""
        self.counters["packet_ins_sent"] += 1
        self._trace("wire.tx", message)
        self.gate.begin(message.xid)
        self._pending[message.xid] = message
        try:
            self._server.send(message)
        except WireError:
            self.gate.abandon(message.xid)
            self._pending.pop(message.xid, None)
            self.counters["send_failures"] += 1
            return None
        if self.gate.dilation > 0:
            return None  # answers collected at the next sync boundary
        start = _monotonic()
        deadline = start + self.gate.latency_budget_s
        answer = _NO_ANSWER
        while answer is _NO_ANSWER:
            queued = self._server.wait_message(deadline)
            if queued is None:
                # Budget exhausted (or server stopping): give up on a
                # synchronous answer; a late reply becomes a hint.
                self.gate.abandon(message.xid)
                self.gate.budget_misses += 1
                break
            answer = self._apply_one(queued, waiting_xid=message.xid)
        self.gate.note_blocked(_monotonic() - start)
        if answer is _NO_ANSWER:
            return None
        return answer

    def forward_northbound(self, message: Message) -> None:
        """Ship a no-reply northbound event (port status, flow
        removed)."""
        if self._server is None:
            return  # nothing connected yet
        self._trace("wire.tx", message)
        try:
            self._server.send(message)
        except WireError:
            self.counters["send_failures"] += 1

    def sync(self) -> None:
        """Sync-quantum boundary: wait (up to the budget) for every
        outstanding round trip, then apply whatever the controller sent."""
        server = self._server
        if server is None:
            return
        self.counters["syncs"] += 1
        start = _monotonic()
        deadline = start + self.gate.latency_budget_s
        while self.gate.outstanding > 0:
            message = server.wait_message(deadline)
            if message is None:
                self.gate.sync(0.0)  # abandon stragglers, count misses
                break
            self._apply_one(message)
        for message in server.pop_messages():
            self._apply_one(message)
        waited = _monotonic() - start
        self.gate.note_blocked(waited)
        bus = self.channel.trace_bus
        if bus is not None:
            bus.emit(
                "wire.sync",
                outstanding_after=self.gate.outstanding,
                inbox_after=server.inbox_size,
            )

    # ------------------------------------------------------------------
    # Southbound application (simulation thread)
    # ------------------------------------------------------------------
    def _apply_one(self, message: Message, waiting_xid: Optional[int] = None):
        """Apply one decoded southbound message.  Returns the awaited
        answer (a port list or None) when ``message`` answers
        ``waiting_xid``, else the ``_NO_ANSWER`` sentinel."""
        self._trace("wire.rx", message)
        if isinstance(message, PacketOut):
            return self._handle_packet_out(message, waiting_xid)
        reply: Optional[Message]
        try:
            reply = self.channel.apply_southbound(message)
            self.counters["southbound_applied"] += 1
        except ControlPlaneError as exc:
            self.counters["southbound_errors"] += 1
            reply = ErrorMsg(
                dpid=message.dpid,
                error_type=type(exc).__name__,
                detail=str(exc),
                failed_xid=message.xid,
            )
        if reply is not None:
            if isinstance(reply, ErrorMsg):
                reply.failed_xid = message.xid
            reply.xid = message.xid
            self._trace("wire.tx", reply)
            try:
                self._server.send(reply)
            except WireError:
                self.counters["send_failures"] += 1
        return _NO_ANSWER

    def _handle_packet_out(
        self, message: PacketOut, waiting_xid: Optional[int]
    ):
        if message.buffer_id is None:
            # Unsolicited injection: the flow-level model has no flow to
            # attach it to (see docs/wire-protocol.md).
            self.counters["dropped_packet_outs"] += 1
            return _NO_ANSWER
        original = self._pending.pop(message.buffer_id, None)
        if original is None:
            self.counters["dropped_packet_outs"] += 1
            return _NO_ANSWER
        elapsed = self.gate.complete(message.buffer_id)
        # Empty out_ports means the controller made no decision — the
        # in-process transport's None.
        ports = list(message.out_ports) if message.out_ports else None
        if waiting_xid is not None and message.buffer_id == waiting_xid:
            self.counters["answers"] += 1
            return ports
        # Late (budget-missed) or asynchronous (dilation > 0) answer:
        # delivered as a packet-out hint, charged the dilated latency.
        self.counters["late_answers"] += 1
        if ports:
            self.channel.stats["packet_outs"] += 1
            latency = self.gate.simulated_latency(elapsed or 0.0)
            if latency > 0:
                self.channel.sim.call_in(
                    latency, self._deliver_packet_out_event, original, ports
                )
            else:
                self.channel.deliver_packet_out(original, ports)
        return _NO_ANSWER

    def _deliver_packet_out_event(self, sim, original: PacketIn, ports) -> None:
        self.channel.deliver_packet_out(original, list(ports))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _trace(self, span: str, message: Message) -> None:
        bus = self.channel.trace_bus
        if bus is not None:
            bus.emit(span, type=type(message).__name__, dpid=message.dpid)

    def metrics(self) -> Dict[str, float]:
        """Pull-source for MetricsRegistry (flattened under ``wire.``)."""
        out: Dict[str, float] = {
            k: float(v) for k, v in self.counters.items()
        }
        if self._server is not None:
            out.update(self._server.stats())
        else:
            out["active_connections"] = 0.0
            out["bound_connections"] = 0.0
        for key, value in self.gate.stats().items():
            out[f"gate_{key}"] = value
        out["pending_packet_ins"] = float(len(self._pending))
        return out

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Sockets, threads, and in-flight round trips are wall-clock
        state: drop them.  A restored runtime re-establishes connections
        lazily on the next run()."""
        state = self.__dict__.copy()
        if self.client_mode == "learning" and self._client is not None:
            state["_client_state"] = {
                "mac_table": dict(self._client.app.mac_table)
            }
        state["_server"] = None
        state["_client"] = None
        state["_client_thread"] = None
        state["_pending"] = {}
        state["bound_address"] = None
        state["on_listening"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # New connections must advertise the restored flag so the
        # controller skips proactive installs.
        self.restored = True


def _monotonic() -> float:
    """Host clock used only to pace waiting and budget deadlines."""
    return time.monotonic()  # repro: noqa[DET001] - paces the host thread; never feeds sim state
