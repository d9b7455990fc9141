"""Differential tests for checkpoint/restore fidelity.

The contract is *bitwise* determinism: a run that is checkpointed,
serialized to disk, reloaded, and continued must produce exactly the
dynamics of one that was never interrupted — identical event counts,
end times, byte counters, rates, and routes.  Each test compares the
complete per-flow fingerprint (no rounding) between an interrupted and
an uninterrupted execution of the same scenario.
"""

import glob
import os

from repro import Flow, Horse, HorseConfig
from repro.net.generators import linear
from repro.openflow.headers import tcp_flow
from repro.runtime import load_checkpoint, save_checkpoint
from repro.runtime.scenario import build_horse, build_traffic, reset_id_counters
from repro.stats.export import run_digest

from .test_kernel_reschedule_differential import _counters

SCENARIO = {
    "schema_version": 1,
    "engine": "flow",
    "seed": 5,
    "until": 3.0,
    "topology": {"kind": "leaf-spine", "leaves": 3, "spines": 2},
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {"kind": "matrix", "total": "1 Gbps", "horizon_s": 2.0},
}


def _build(scenario=None):
    scenario = scenario or SCENARIO
    # Rewind process-global id counters so every build assigns the same
    # flow ids — a restored run in a fresh process starts from them too.
    reset_id_counters()
    horse, fabric = build_horse(scenario)
    build_traffic(scenario["traffic"], horse, fabric)
    return horse


def _fingerprint(horse, result):
    return {
        "events": result.events,
        "sim_time_s": result.sim_time_s,
        "rules": result.rule_count,
        "flows": [
            (
                flow.flow_id,
                flow.state.name,
                flow.end_time,          # exact, no rounding
                flow.bytes_sent,
                flow.bytes_delivered,
                flow.rate_bps,          # bitwise
                tuple(d.key for d in flow.route.directions) if flow.route else (),
            )
            for flow in sorted(result.flows, key=lambda f: f.flow_id)
        ],
        "stats": dict(horse.engine.stats),
    }


class TestCheckpointRoundTrip:
    def test_segmented_with_and_without_checkpoint_identical(self, tmp_path):
        """run-to-t / continue must not care whether the state crossed
        a pickle + zlib + disk round trip at t."""
        plain = _build()
        plain.run(until=1.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "mid.ckpt")
        source = _build()
        source.run(until=1.0)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        assert restored is not source  # a genuinely new object graph
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_restore_matches_uninterrupted_run(self, tmp_path):
        """Checkpoint/restore at t=1 vs a single uninterrupted run.

        Event counts, end times, rates, and routes are bitwise equal.
        The interruption adds a statistics accrual point at t, which
        splits the running byte sums (``a+(b+c)`` vs ``(a+b)+c``), so
        byte counters are compared at the flow-CSV export precision
        (milli-bytes) instead of bitwise; the segmented tests above are
        the bitwise serialization-fidelity contract.
        """

        def round_bytes(fp):
            fp = dict(fp)
            fp["flows"] = [
                row[:3] + (round(row[3], 3), round(row[4], 3)) + row[5:]
                for row in fp["flows"]
            ]
            return fp

        straight = _build()
        want = _fingerprint(straight, straight.run(until=3.0))

        path = str(tmp_path / "mid.ckpt")
        source = _build()
        source.run(until=1.0)
        source.checkpoint(path)
        restored = Horse.restore(path)
        got = _fingerprint(restored, restored.run(until=3.0))
        assert round_bytes(got) == round_bytes(want)

    def test_double_round_trip_identical(self, tmp_path):
        """Checkpointing twice along the way (1.0 and 2.0) changes
        nothing either — fidelity composes."""
        plain = _build()
        plain.run(until=1.0)
        plain.run(until=2.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "hop.ckpt")
        horse = _build()
        for t in (1.0, 2.0):
            horse.run(until=t)
            save_checkpoint(horse, path)
            horse = load_checkpoint(path)
        got = _fingerprint(horse, horse.run(until=3.0))
        assert got == want

    def test_periodic_checkpoint_is_resumable(self, tmp_path):
        """A run configured with a checkpoint ticker leaves a file a
        fresh process can resume into the identical final state."""
        path = str(tmp_path / "tick.ckpt")
        scenario = dict(
            SCENARIO,
            checkpoint={"path": path, "interval_s": 0.8},
        )
        full = _build(scenario)
        want = _fingerprint(full, full.run(until=3.0))
        assert os.path.exists(path)
        assert not glob.glob(path + ".tmp.*")  # atomic writes leave no temp

        restored = Horse.restore(path)
        assert restored.sim.now < 3.0  # a genuinely mid-run snapshot
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_snapshot_with_owed_counters_and_an_early_timer(self, tmp_path):
        """The flow engine settles route counters when they are read and
        lets a completion timer fire before its due time: a periodic
        snapshot taken while a flow's paid watermark trails what it sent
        and a timer is queued early resumes into the uninterrupted run's
        digest, flows and port / entry counters."""
        path = str(tmp_path / "owed.ckpt")
        scenario = dict(
            SCENARIO,
            traffic=dict(SCENARIO["traffic"], total="3 Gbps"),
            checkpoint={"path": path, "interval_s": 1.1},
        )
        full = _build(scenario)
        result = full.run(until=3.0)
        want = (_fingerprint(full, result), run_digest(result), _counters(full.topology))

        restored = Horse.restore(path)
        engine = restored.engine
        assert restored.sim.now == 2.2  # the last tick, mid-run
        assert engine._carried and any(
            engine._paid.get(flow_id, 0) < int(flow.bytes_sent)
            for flow_id, flow in engine.active.items()
        )
        assert any(
            event.queued and event.time < event.due
            for event in engine._completions.values()
        )
        result = restored.run(until=3.0)
        got = (_fingerprint(restored, result), run_digest(result),
               _counters(restored.topology))
        assert got == want

    def test_snapshot_with_unpulled_loads(self, tmp_path):
        """Link loads are summed when read: a periodic snapshot taken
        while the solver still records components re-solved since the
        last sampling tick resumes into the uninterrupted run's digest
        (link samples included) and final loads."""
        path = str(tmp_path / "unpulled.ckpt")
        scenario = dict(
            SCENARIO,
            telemetry={"link_sample_interval_s": 1.7},
            checkpoint={"path": path, "interval_s": 1.1},
        )
        full = _build(scenario)
        result = full.run(until=3.0)
        want = (run_digest(result),
                [d.allocated_bps for d in full.topology.directions()])

        restored = Horse.restore(path)
        assert restored.sim.now == 2.2  # the sampling tick before was 1.7
        assert restored.engine._solver._unpulled
        result = restored.run(until=3.0)
        assert (run_digest(result),
                [d.allocated_bps for d in restored.topology.directions()]) == want

    def test_snapshot_while_an_early_timer_holds_a_reserved_seq(self, tmp_path):
        """Two equal flows share a link from one instant and tie at
        their completion.  The first one's timer sits early, holding the
        seq reserved when the second one's arrival moved its due time,
        so it fires first.  A snapshot taken there resumes into the
        uninterrupted run, the tie's order (each flow's last rate)
        included."""

        def build():
            reset_id_counters()
            topo = linear(2, hosts_per_switch=2, capacity_bps=8e6)
            horse = Horse(
                topo,
                policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
            )
            horse.submit_flows([
                Flow(headers=tcp_flow(topo.host(src).ip, topo.host(dst).ip, 5000 + i, 80),
                     src=src, dst=dst, demand_bps=8e6, size_bytes=125_000)
                for i, (src, dst) in enumerate((("h1", "h3"), ("h2", "h4")))
            ])
            return horse

        straight = build()
        result = straight.run(until=1.0)
        want = _fingerprint(straight, result)
        assert [row[5] for row in want["flows"]] == [4e6, 8e6]
        assert want["flows"][0][2] == want["flows"][1][2] == 0.25

        path = str(tmp_path / "tie.ckpt")
        source = build()
        source.run(until=0.1)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        first, second = (restored.engine._completions[f.flow_id]
                         for f in sorted(restored.engine.flows.values(),
                                         key=lambda f: f.flow_id))
        assert first.time < first.due == second.time
        assert first.due_seq < second.seq
        assert _fingerprint(restored, restored.run(until=1.0)) == want

    def test_packet_snapshot_while_packets_wait_in_a_queue(self, tmp_path):
        """Two flows overload a packet-engine link, so its queue holds
        the start instants of packets whose arrivals are already
        scheduled.  A snapshot taken then resumes into the uninterrupted
        run's digest, flows, engine stats and port / entry counters."""

        def build():
            reset_id_counters()
            topo = linear(2, hosts_per_switch=2, capacity_bps=8e6)
            horse = Horse(
                topo,
                policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
                config=HorseConfig(engine="packet", seed=3),
            )
            horse.submit_flows([
                Flow(headers=tcp_flow(topo.host(src).ip, topo.host(dst).ip, 5000 + i, 80),
                     src=src, dst=dst, demand_bps=6e6, size_bytes=100_000)
                for i, (src, dst) in enumerate((("h1", "h3"), ("h2", "h4")))
            ])
            return horse

        def finish(horse):
            result = horse.run(until=1.0)
            return (_fingerprint(horse, result), run_digest(result),
                    _counters(horse.topology))

        plain = build()
        plain.run(until=0.1)
        want = finish(plain)
        assert [row[1] for row in want[0]["flows"]] == ["COMPLETED"] * 2

        path = str(tmp_path / "queued.ckpt")
        source = build()
        source.run(until=0.1)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        waiting = [queue.depth for queue in restored.engine._queues.values()]
        assert max(waiting) > 1
        assert finish(restored) == want

    def test_hybrid_segmented_round_trip_identical(self, tmp_path):
        """The hybrid engine's full coupled state — packet queues and
        transports, solver external demands, sync ticker, selection
        threshold — survives a pickle + disk round trip bitwise."""
        scenario = dict(SCENARIO, engine="hybrid", hybrid={"select": "top:3"})
        plain = _build(scenario)
        plain.run(until=1.0)
        want = _fingerprint(plain, plain.run(until=3.0))

        path = str(tmp_path / "hybrid.ckpt")
        source = _build(scenario)
        source.run(until=1.0)
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        assert restored is not source
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want
        # The scenario genuinely exercised the coupling, not a
        # degenerate empty foreground.
        assert restored.engine.stats["foreground_flows"] == 3
        assert restored.engine.stats["syncs"] > 0

    def test_hybrid_periodic_checkpoint_is_resumable(self, tmp_path):
        """A mid-run hybrid snapshot from the periodic ticker resumes
        into the identical final state in a fresh object graph."""
        path = str(tmp_path / "hybrid-tick.ckpt")
        scenario = dict(
            SCENARIO,
            engine="hybrid",
            hybrid={"select": "top:2"},
            checkpoint={"path": path, "interval_s": 0.8},
        )
        full = _build(scenario)
        want = _fingerprint(full, full.run(until=3.0))
        assert os.path.exists(path)

        restored = Horse.restore(path)
        assert restored.sim.now < 3.0
        got = _fingerprint(restored, restored.run(until=3.0))
        assert got == want

    def test_restored_run_keeps_checkpointing(self, tmp_path):
        """The pending ticker travels with the snapshot: a restored run
        continues writing checkpoints on the same cadence."""
        path = str(tmp_path / "tick.ckpt")
        scenario = dict(
            SCENARIO,
            checkpoint={"path": path, "interval_s": 0.8},
        )
        horse = _build(scenario)
        horse.run(until=1.0)  # ticker fired at 0.8
        assert os.path.exists(path)
        restored = load_checkpoint(path)
        os.unlink(path)
        restored.run(until=3.0)
        assert os.path.exists(path)  # rewritten by the restored run
