"""Differential gates for the external (wire) control plane.

The wire gateway's contract is that moving the controller out of the
process must not change the simulation:

* **Digest parity.**  A run driven by the built-in wire learning
  client over a real loopback TCP socket produces the *same run
  digest* as the in-process ``L2LearningApp`` — same flows, same end
  times, same byte counters, bit for bit.  (``run_digest`` excludes
  the ``wire.*`` transport counters, which measure the host, not the
  simulation.)
* **Checkpoint transparency.**  Checkpointing a wire-controlled run
  mid-flight and continuing — in the same process or after a disk
  round trip — yields the uninterrupted digest.  Sockets and threads
  are wall-clock state; the snapshot carries only the client's MAC
  table and reconnects lazily.
* **Garbage resilience.**  A rogue connection feeding the server
  malformed frames gets ``ErrorMsg`` replies (or a disconnect once the
  stream cannot be re-framed) and leaves the simulation untouched.
"""

import socket
import struct
import time

from repro import Horse, HorseConfig
from repro.control.apps import L2LearningApp
from repro.control.controller import Controller
from repro.net.generators import tree
from repro.openflow.messages import ErrorMsg, Hello
from repro.runtime import load_checkpoint, save_checkpoint
from repro.runtime.scenario import reset_id_counters
from repro.stats.export import run_digest
from repro.wire.codec import HEADER_SIZE, WIRE_VERSION, FrameReader, decode, encode

from workloads import make_flow

WIRE_CONFIG = dict(
    control="wire",
    wire={"client": "learning", "latency_budget_s": 60.0},
)


def _flows(topo):
    return [
        make_flow(topo, "h1", "h3", 4e6, size=300_000, sport=1000),
        make_flow(topo, "h3", "h1", 4e6, size=200_000, sport=1001, start=0.2),
        make_flow(topo, "h2", "h4", 4e6, size=250_000, sport=1002, start=0.4),
    ]


def _build_wire():
    reset_id_counters()
    topo = tree(2, 2)
    horse = Horse(topo, config=HorseConfig(**WIRE_CONFIG))
    horse.submit_flows(_flows(topo))
    return horse


def _build_inproc():
    reset_id_counters()
    topo = tree(2, 2)
    controller = Controller()
    controller.add_app(L2LearningApp())
    horse = Horse(topo, controller=controller)
    horse.submit_flows(_flows(topo))
    return horse


class TestWireDigestParity:
    def test_wire_learning_matches_inproc_digest(self):
        inproc = _build_inproc()
        want = run_digest(inproc.run())

        wire = _build_wire()
        try:
            result = wire.run()
        finally:
            wire.shutdown_wire()
        assert run_digest(result) == want

        # The wire leg measured its transport (so the exclusion in
        # run_digest did real work) and delivered every flow.
        assert any(key.startswith("wire.") for key in result.metrics)
        assert result.metrics["wire.packet_ins_sent"] > 0
        assert all(flow.bytes_delivered for flow in result.flows)

    def test_shutdown_is_idempotent(self):
        horse = _build_wire()
        try:
            horse.run()
        finally:
            horse.shutdown_wire()
        horse.shutdown_wire()  # second call must be a no-op
        assert horse.wire.metrics()["active_connections"] == 0.0


class TestWireCheckpointTransparency:
    def test_checkpoint_and_restore_match_uninterrupted(self, tmp_path):
        uninterrupted = _build_wire()
        try:
            want = run_digest(uninterrupted.run())
        finally:
            uninterrupted.shutdown_wire()

        path = str(tmp_path / "wire.ckpt")
        source = _build_wire()
        try:
            source.run(until=0.7)
            save_checkpoint(source, path)
            continued = run_digest(source.run())
        finally:
            source.shutdown_wire()
        assert continued == want

        restored = load_checkpoint(path)
        try:
            resumed = run_digest(restored.run())
        finally:
            restored.shutdown_wire()
        assert resumed == want


class TestWireGarbageResilience:
    def _drain_frames(self, sock, reader, want, deadline_s=20.0):
        """Read until ``want`` messages arrived or the peer closed."""
        messages = []
        deadline = time.monotonic() + deadline_s
        sock.settimeout(1.0)
        while len(messages) < want and time.monotonic() < deadline:
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            if not data:
                break
            reader.feed(data)
            messages.extend(decode(frame) for frame in reader.frames())
        return messages

    def test_rogue_connection_cannot_disturb_the_run(self):
        horse = _build_wire()
        try:
            horse.start_control_plane()
            host, port = horse.wire.bound_address

            rogue = socket.create_connection((host, port), timeout=10.0)
            try:
                reader = FrameReader()
                # The server greets every connection.
                greeting = self._drain_frames(rogue, reader, want=1)
                assert [type(m) for m in greeting] == [Hello]

                # A well-framed frame with an unknown type code: the
                # boundary holds, so the server answers with ErrorMsg
                # and keeps the connection.
                bad_type = struct.pack(
                    "!BBHIQ", WIRE_VERSION, 99, HEADER_SIZE + 8, 7, 1
                )
                rogue.sendall(bad_type)
                replies = self._drain_frames(rogue, reader, want=1)
                assert [type(m) for m in replies] == [ErrorMsg]

                # A bad version byte is unrecoverable: one last
                # ErrorMsg, then the server drops the stream.
                rogue.sendall(b"\x7f" + b"\x00" * 7)
                replies = self._drain_frames(rogue, reader, want=2)
                assert ErrorMsg in {type(m) for m in replies}
            finally:
                rogue.close()

            result = horse.run()
        finally:
            horse.shutdown_wire()

        assert result.metrics["wire.decode_errors"] >= 2.0

        # The rogue bytes must not have leaked into the simulation.
        inproc = _build_inproc()
        assert run_digest(result) == run_digest(inproc.run())


def test_codec_symmetry_on_the_greeting():
    # The smallest end-to-end sanity: the exact greeting frame the
    # server sends is decodable by the client-side codec.
    greeting = Hello(dpid=0, xid=5, version=WIRE_VERSION)
    assert decode(encode(greeting)) == greeting
