"""The packet engine's forwarding-decision memo, and its egress loop.

A hop whose switch, ingress port, flow and headers were seen before
reuses the pipeline's decision instead of re-running it.  The memo must be
invisible: every test here runs the engine with the memo forced to miss
(every hop runs the pipeline, as before the memo) or squeezed to a tiny
cap, and demands the same digest and the same counters on every table,
entry, group bucket and port.  The link-flip run pins the case a memo
keyed on rule versions alone gets wrong: an egress port that dies
under unchanged rules.
"""

import json
import os

import pytest

from repro import Flow, Horse
from repro.control import Controller
from repro.control.apps import L2LearningApp
from repro.core.config import HorseConfig
from repro.net.generators import linear, single_switch, tree
from repro.net.topology import Topology
from repro.openflow import ApplyActions, Drop, Match, Output
from repro.openflow.headers import tcp_flow, udp_flow
from repro.pktsim import PacketLevelEngine
from repro.pktsim import engine as pktsim_engine
from repro.runtime import load_checkpoint, save_checkpoint
from repro.runtime.scenario import (
    build_horse,
    build_traffic,
    reset_id_counters,
    run_scenario,
)
from repro.stats.export import run_digest
from repro.telemetry import TraceBus

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios"
)


def _scenario(name):
    with open(os.path.join(SCENARIO_DIR, name)) as handle:
        return json.load(handle)


class _Forgetful(dict):
    """A decision memo that never hits: every hop runs the pipeline."""

    def get(self, key, default=None):
        return default


@pytest.fixture
def memo_off(monkeypatch):
    original = PacketLevelEngine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._decisions = _Forgetful()

    monkeypatch.setattr(PacketLevelEngine, "__init__", init)


def _counters(topology):
    """Table lookups, entries, group buckets, meters and ports."""
    out = {}
    for switch in topology.switches:
        pipeline = switch.pipeline
        out[switch.name] = {
            "tables": [
                (table.lookup_count, table.matched_count)
                for table in pipeline.tables
            ],
            "entries": [
                (table.table_id, repr(entry.match), entry.priority,
                 entry.packet_count, entry.byte_count, entry.last_used)
                for table in pipeline.tables
                for entry in table
            ],
            "groups": [
                (group.group_id, tuple(group.bucket_bytes))
                for group in pipeline.groups.groups
            ],
            "meters": [
                (meter.meter_id, meter.in_bytes, meter.dropped_bytes)
                for meter in pipeline.meters.meters
            ],
        }
    out["ports"] = [
        (node.name, number, port.tx_packets, port.tx_bytes, port.rx_packets,
         port.rx_bytes, port.tx_dropped)
        for node in topology.nodes
        for number, port in sorted(node.ports.items())
    ]
    return out


def _scenario_run(name):
    horse, result, _ = run_scenario(_scenario(name))
    return run_digest(result), _counters(horse.topology), result.engine_summary


def _learning_run(idle_timeout=0.3):
    """Reactive MAC learning on the packet engine: rules time out and
    are relearned, so pipeline versions move all run long."""
    reset_id_counters()
    topo = tree(2, 2)
    controller = Controller()
    controller.add_app(L2LearningApp(idle_timeout=idle_timeout))
    horse = Horse(
        topo,
        controller=controller,
        config=HorseConfig(engine="packet", entry_expiry_interval_s=0.1),
    )
    flows = []
    for i, (src, dst) in enumerate(
        [("h1", "h4"), ("h4", "h1"), ("h2", "h3"), ("h3", "h2"), ("h1", "h3")]
    ):
        s, d = topo.host(src), topo.host(dst)
        flows.append(Flow(
            headers=tcp_flow(s.ip, d.ip, 1000 + i, 80, eth_src=s.mac, eth_dst=d.mac),
            src=src, dst=dst, demand_bps=2e6, size_bytes=60_000,
            start_time=0.4 * i,
        ))
    horse.submit_flows(flows)
    result = horse.run(until=4.0)
    return run_digest(result), _counters(topo), result.engine_summary


def _install_static_routes(topo):
    """One ip_dst rule per (switch, host) along a shortest path."""
    for switch in topo.switches:
        for host in topo.hosts:
            out = topo.egress_port(switch, topo.shortest_path(switch, host)[1])
            switch.pipeline.install(
                Match(ip_dst=host.ip),
                (ApplyActions((Output(out.number),)),),
                priority=10,
            )


def _rule_change_run():
    """h1 - s1 - s2 - h2 under static rules; s1's rule for h2 turns into
    a Drop at 0.5 s and back at 1.0 s while a CBR flow runs through it."""
    reset_id_counters()
    topo = linear(2, hosts_per_switch=1, capacity_bps=10e6)
    horse = Horse(topo, config=HorseConfig(engine="packet"))
    _install_static_routes(topo)
    h1, h2 = topo.host("h1"), topo.host("h2")
    table = topo.switch("s1").pipeline.table(0)
    match = Match(ip_dst=h2.ip)
    (forward,) = [entry for entry in table if entry.match == match]

    def rewrite(instructions):
        return lambda sim: table.modify(match, instructions, priority=10, strict=True)

    horse.sim.call_at(0.5, rewrite((ApplyActions((Drop(),)),)))
    horse.sim.call_at(1.0, rewrite(forward.instructions))
    horse.submit_flows([
        Flow(headers=udp_flow(h1.ip, h2.ip, 1000, 80), src="h1", dst="h2",
             demand_bps=4e6, size_bytes=None, duration_s=1.5, elastic=False),
    ])
    result = horse.run(until=2.0)
    return run_digest(result), _counters(topo), result.engine_summary


def _flip_horse():
    """h1, h3 - s1 - s2 - h2 under static ip_dst rules; the s1-s2 link
    fails at 0.5 s and comes back at 1.0 s.  The rules never change, so
    only the link state tells the memo its egress queue is dead."""
    reset_id_counters()
    topo = Topology()
    for name in ("s1", "s2"):
        topo.add_switch(name)
    for name in ("h1", "h2", "h3"):
        topo.add_host(name)
    for a, b in (("h1", "s1"), ("h3", "s1"), ("s1", "s2"), ("s2", "h2")):
        topo.add_link(a, b, capacity_bps=10e6, delay_s=1e-3)
    horse = Horse(
        topo, config=HorseConfig(engine="hybrid", hybrid={"select": "top:1"})
    )
    _install_static_routes(topo)
    h1, h2, h3 = (topo.host(name) for name in ("h1", "h2", "h3"))
    horse.submit_flows([
        # Foreground (the top demand): AIMD, so how a packet is lost
        # (congestion feedback or a silent no-route drop) moves the run.
        Flow(headers=tcp_flow(h1.ip, h2.ip, 1000, 80), src="h1", dst="h2",
             demand_bps=6e6, size_bytes=None, duration_s=1.5),
        Flow(headers=udp_flow(h3.ip, h2.ip, 2000, 80), src="h3", dst="h2",
             demand_bps=5e6, size_bytes=None, duration_s=1.5, elastic=False),
    ])
    horse.fail_link(0.5, "s1", "s2")
    horse.restore_link(1.0, "s1", "s2")
    return horse


def _flip_run():
    horse = _flip_horse()
    result = horse.run(until=2.0)
    return run_digest(result), _counters(horse.topology), horse.engine.foreground.stats


class TestMemoIsInvisible:
    @pytest.mark.parametrize("name", ["packet_demo.json", "hybrid_demo.json"])
    def test_scenario_same_with_memo_forced_to_miss(self, name, request):
        on = _scenario_run(name)
        request.getfixturevalue("memo_off")
        assert _scenario_run(name) == on

    def test_learning_with_idle_timeouts_same_with_memo_forced_to_miss(
        self, request
    ):
        on = _learning_run()
        # The run churns rules: entries expire and are relearned.
        assert on[2]["packet_ins"] > 5
        request.getfixturevalue("memo_off")
        assert _learning_run() == on

    def test_rule_change_same_with_memo_forced_to_miss(self, request):
        on = _rule_change_run()
        # The Drop rule took a third of the flow.
        assert on[2]["drops_policy"] == pytest.approx(
            on[2]["packets_sent"] / 3, abs=2
        )
        request.getfixturevalue("memo_off")
        assert _rule_change_run() == on

    def test_link_flip_same_with_memo_forced_to_miss(self, request):
        on = _flip_run()
        request.getfixturevalue("memo_off")
        assert _flip_run() == on

    def test_memo_hits(self):
        reset_id_counters()
        horse, _, _ = run_scenario(_scenario("packet_demo.json"))
        calls = sum(
            table.lookup_count
            for switch in horse.topology.switches
            for table in switch.pipeline.tables[:1]
        )
        # Far fewer decisions than table-0 lookups: most hops hit.
        assert 0 < len(horse.engine._decisions) < calls / 10

    def test_clearing_at_a_tiny_cap_changes_nothing(self, monkeypatch):
        digests = {"packet_demo.json": None, "hybrid_demo.json": None}
        for name in digests:
            digests[name] = _scenario_run(name)
        flip = _flip_run()
        monkeypatch.setattr(pktsim_engine, "_DECISION_MEMO_MAX", 2)
        for name, want in digests.items():
            assert _scenario_run(name) == want
        assert _flip_run() == flip


class TestLinkFlip:
    DIGEST = "8e487a478fbd"

    def test_dead_egress_under_static_rules(self):
        digest, _, stats = _flip_run()
        # Packets meeting the dead s1-s2 port are no-route drops (no
        # congestion signal), not congestion drops on a dead queue.
        assert stats["drops_no_route"] == 33
        assert stats["drops_congestion"] == 59
        assert stats["packets_delivered"] == 197
        assert digest.startswith(self.DIGEST)


class TestCheckpoint:
    @pytest.mark.parametrize("name", ["packet_demo.json", "hybrid_demo.json"])
    def test_resume_is_bitwise(self, name, tmp_path):
        scenario = _scenario(name)
        until = scenario["until"]

        def build():
            reset_id_counters()
            horse, fabric = build_horse(scenario)
            build_traffic(scenario["traffic"], horse, fabric)
            return horse

        plain = build()
        want = run_digest(plain.run(until=until))
        source = build()
        source.run(until=until / 3)
        # The memo crosses the checkpoint with decisions in it.
        assert getattr(source.engine, "foreground", source.engine)._decisions
        path = str(tmp_path / "mid.ckpt")
        save_checkpoint(source, path)
        restored = load_checkpoint(path)
        assert run_digest(restored.run(until=until)) == want


def _dead_port_horse(*ports):
    """h1 - s1 - h2 with one rule sending h2's traffic to ``ports``."""
    reset_id_counters()
    topo = single_switch(2, capacity_bps=100e6)
    horse = Horse(topo, config=HorseConfig(engine="packet"))
    h1, h2 = topo.host("h1"), topo.host("h2")
    actions = tuple(Output(port) for port in ports) if ports else (Drop(),)
    topo.switch("s1").pipeline.install(
        Match(ip_dst=h2.ip), (ApplyActions(actions),), priority=10
    )
    flow = Flow(headers=udp_flow(h1.ip, h2.ip, 1000, 80), src="h1", dst="h2",
                demand_bps=10e6, size_bytes=150_000, elastic=False)
    horse.submit_flows([flow])
    bus = TraceBus(horse.sim)
    horse.engine.trace_bus = bus
    horse.run(until=1.0)
    drops = [r["reason"] for r in bus.events if r.get("kind") == "packet.drop"]
    return flow, horse.engine.stats, drops


class TestNoLiveEgress:
    def test_missing_port_drops_are_charged_to_the_flow(self):
        flow, stats, drops = _dead_port_horse(99)
        assert flow.bytes_sent == 150_000
        assert flow.bytes_delivered == 0
        assert flow.bytes_dropped == 150_000
        assert stats["drops_no_route"] == 100
        assert drops == ["no_route"] * 100

    def test_charged_like_a_drop_rule(self):
        dead, _, _ = _dead_port_horse(99)
        dropped, stats, _ = _dead_port_horse()
        assert stats["drops_policy"] == 100
        assert dead.bytes_dropped == dropped.bytes_dropped == 150_000

    def test_each_dead_output_counts_the_packet_charges_once(self):
        flow, stats, drops = _dead_port_horse(98, 99)
        assert stats["drops_no_route"] == 200
        assert flow.bytes_dropped == 150_000
        assert drops == ["no_route"] * 100

    def test_one_live_copy_is_no_loss(self):
        flow, stats, drops = _dead_port_horse(99, 2)
        assert flow.bytes_delivered == 150_000
        assert flow.bytes_dropped == 0
        assert stats["drops_no_route"] == 100
        assert drops == []
