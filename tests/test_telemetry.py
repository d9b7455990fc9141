"""Telemetry tests: registry, trace bus, span shares, and the hub."""

import ast
import pathlib
import re

import pytest

from repro import Flow, Horse, HorseConfig
from repro.errors import TelemetryError
from repro.net.generators import tree
from repro.openflow.headers import tcp_flow
from repro.runtime.scenario import run_scenario
from repro.runtime.schema import load_scenario, set_dotted
from repro.sim import Simulator
from repro.stats.export import run_digest
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    TraceBus,
    read_trace,
    summarize_trace,
)


def flow_between(topo, src, dst, **kw):
    s, d = topo.host(src), topo.host(dst)
    sport = kw.pop("sport", 1000)
    defaults = dict(demand_bps=1e6, size_bytes=100_000)
    defaults.update(kw)
    return Flow(
        headers=tcp_flow(s.ip, d.ip, sport, 80), src=src, dst=dst, **defaults
    )


def small_horse(**config_kw):
    topo = tree(2, 2)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(**config_kw),
    )
    horse.submit_flows([flow_between(topo, "h1", "h4")])
    return topo, horse


class TestRegistry:
    def test_source_flattening_with_tuple_keys(self):
        registry = MetricsRegistry()
        registry.register_source(
            "monitor",
            lambda: {"max_utilization": {("s1", 2): 0.5}, "samples": 3},
        )
        snap = registry.snapshot()
        assert snap["monitor.max_utilization.s1:2"] == 0.5
        assert snap["monitor.samples"] == 3

    def test_duplicate_source_prefix_rejected(self):
        registry = MetricsRegistry()
        registry.register_source("a", dict)
        with pytest.raises(TelemetryError):
            registry.register_source("a", dict)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.register_source(
            "engine",
            lambda: {"mode": "flow", "n": 2, "util": {("s1", 2): 0.5}},
        )
        text = registry.to_prometheus()
        assert "engine_n 2" in text
        assert "engine_util_s1_2 0.5" in text
        # Non-numeric source values stay as comments.
        assert "# engine_mode = 'flow'" in text


class TestTraceBus:
    def test_buffer_mode_records_header_and_events(self):
        bus = TraceBus()
        bus.emit("x", a=1)
        assert [e["kind"] for e in bus.events] == ["trace.open", "x"]
        assert bus.events[1]["a"] == 1
        assert bus.emitted == 2

    def test_sim_clock_stamps_records(self):
        sim = Simulator()
        bus = TraceBus(sim)
        sim.call_in(2.5, lambda s: bus.emit("later"))
        sim.run()
        assert bus.events[-1]["t"] == 2.5

    def test_span_measures_wall_time(self):
        bus = TraceBus()
        with bus.span("work", step="s"):
            pass
        record = bus.events[-1]
        assert record["kind"] == "work" and record["step"] == "s"
        assert record["wall_dur_s"] >= 0.0

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        bus = TraceBus(path=path)
        bus.emit("one", n=1)
        bus.close()
        records = read_trace(path)
        assert [r["kind"] for r in records] == [
            "trace.open", "one", "trace.close"
        ]
        summary = summarize_trace(records)
        assert summary["records"] == 3
        assert summary["kinds"]["one"]["count"] == 1


class TestSummary:
    def test_shares_are_of_the_kernel_event_total(self):
        records = [
            {"kind": "kernel.event", "t": 0.0, "wall_dur_s": 0.5},
            {"kind": "engine.solve", "t": 1.0, "wall_dur_s": 0.25},
            {"kind": "engine.solve", "t": 1.0, "wall_dur_s": 0.25},
            {"kind": "kernel.event", "t": 1.0, "wall_dur_s": 1.5},
            {"kind": "flow.arrival", "t": 1.0},
        ]
        kinds = summarize_trace(records)["kinds"]
        assert kinds["kernel.event"] == {"count": 2, "wall_dur_s": 2.0, "share": 1.0}
        assert kinds["engine.solve"] == {"count": 2, "wall_dur_s": 0.5, "share": 0.25}
        assert kinds["flow.arrival"]["share"] == 0.0

    def test_no_fired_event_gives_no_share(self):
        kinds = summarize_trace([{"kind": "x", "t": 0.0, "wall_dur_s": 1.0}])["kinds"]
        assert kinds["x"]["share"] is None


class TestHub:
    def test_enable_disable_tracing_swaps_sinks(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.bind(sim)
        bus = telemetry.enable_tracing()
        assert sim.trace_bus is bus
        assert telemetry.enable_tracing() is bus  # idempotent
        bus.emit("x")
        assert telemetry.disable_tracing() is None
        assert sim.trace_bus is None
        assert summarize_trace(bus.events)["kinds"]["x"]["count"] == 1
        assert telemetry.disable_tracing() is None

    def test_disable_tracing_reports_no_summary_for_a_recorded_trace(
        self, tmp_path
    ):
        # A path-backed bus keeps nothing in memory, so any summary it
        # returned on close would be empty, not its own.
        path = str(tmp_path / "t.jsonl")
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.enable_tracing(path).emit("x")
        assert telemetry.disable_tracing() is None
        assert summarize_trace(read_trace(path))["kinds"]["x"]["count"] == 1

    def test_disabling_inside_an_event_closes_the_trace(self, tmp_path):
        # The event's kernel.event span ends after the bus closed: it is
        # dropped, and the file is not re-opened for it.
        path = str(tmp_path / "t.jsonl")
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.bind(sim)
        bus = telemetry.enable_tracing(path)
        sim.call_at(1.0, lambda s: telemetry.disable_tracing())
        sim.call_at(2.0, lambda s: None)
        sim.run()
        assert bus.closed and bus._handle is None
        assert [r["kind"] for r in read_trace(path)] == ["trace.open", "trace.close"]

    def test_late_bind_applies_live_bus(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        bus = telemetry.enable_tracing()
        telemetry.bind(sim)
        assert sim.trace_bus is bus

    def test_kernel_events_are_spans(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.bind(sim)
        bus = telemetry.enable_tracing()
        sim.call_in(1.0, lambda s: bus.emit("inside"))
        sim.run()
        inside, event = bus.events[-2:]
        assert inside["kind"] == "inside"  # the span closes after its body
        assert event["kind"] == "kernel.event" and event["event"] == "CallbackEvent"
        assert event["t"] == 1.0 and event["wall_dur_s"] >= 0.0


class TestHorseIntegration:
    def test_disabled_telemetry_is_a_no_op(self):
        _, horse = small_horse()
        assert horse.sim.trace_bus is None
        assert horse.engine.trace_bus is None
        assert horse.channel.trace_bus is None
        assert not horse.telemetry.tracing_enabled
        result = horse.run()
        assert horse.sim.trace_bus is None
        assert result.metrics["engine.rate_solves"] >= 1

    def test_run_metrics_unify_engine_channel_sim(self):
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        result = horse.run(until=3.0)
        metrics = result.metrics
        assert metrics["engine.rate_solves"] >= 1
        assert metrics["channel.flow_mods"] >= 1
        assert metrics["sim.now"] == 3.0
        assert metrics["monitor.samples"] == 3
        assert metrics["monitor.mode"] == "poll"

    def test_tracing_via_config_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        _, horse = small_horse(telemetry={"trace_path": path})
        horse.run()
        horse.telemetry.disable_tracing()
        kinds = {r["kind"] for r in read_trace(path)}
        assert "kernel.event" in kinds
        assert "channel.flow_mod" in kinds
        assert "flow.completed" in kinds
        assert "solver.resolve" in kinds

    def test_route_and_solve_spans_share_the_event_time(self):
        _, horse = small_horse()
        bus = horse.telemetry.enable_tracing()
        horse.run()
        kinds = summarize_trace(bus.events)["kinds"]
        assert kinds["kernel.event"]["share"] == 1.0
        for span in ("engine.route", "engine.solve"):
            assert kinds[span]["count"] > 0
            assert 0.0 < kinds[span]["share"] < 1.0

    def test_a_synchronous_packet_in_is_a_span(self):
        topo = tree(2, 2)
        horse = Horse(topo, policies={"forwarding": {"mode": "learning"}})
        horse.submit_flows([flow_between(topo, "h1", "h4")])
        bus = horse.telemetry.enable_tracing()
        result = horse.run()
        packet_ins = [r for r in bus.events if r["kind"] == "channel.packet_in"]
        assert len(packet_ins) == result.metrics["channel.packet_ins"] > 0
        assert all(r["wall_dur_s"] >= 0.0 for r in packet_ins)

    def test_monitor_accessor_creates_and_returns(self):
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        monitor = horse.monitor()
        assert monitor is horse.monitor()
        horse.run(until=2.5)
        assert len(monitor.samples) == 2

    def test_monitor_accessor_without_config_starts_default(self):
        _, horse = small_horse()
        monitor = horse.monitor()
        horse.run(until=2.5)
        assert monitor.interval == 1.0
        assert len(monitor.samples) == 2

    def test_checkpoint_restore_preserves_registry(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        _, horse = small_horse(telemetry={"monitor_interval_s": 1.0})
        horse.run(until=2.0)
        before = horse.telemetry.snapshot()
        horse.checkpoint(path)

        restored = Horse.restore(path)
        after = restored.telemetry.snapshot()
        assert after == before
        # Sources stay live: running further advances the pulled values.
        restored.run(until=4.0)
        assert restored.telemetry.snapshot()["sim.now"] == 4.0
        assert restored.telemetry.snapshot()["monitor.samples"] == 4


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def _keys(stats):
    for key, value in stats.items():
        yield str(key)
        if isinstance(value, dict):
            yield from _keys(value)


@pytest.mark.parametrize(
    "name", ["quickstart.json", "packet_demo.json", "hybrid_demo.json"]
)
def test_tracing_never_enters_a_result(name, tmp_path):
    """A traced run's result is the untraced run's (flow, packet and
    hybrid engines): the same ``run_digest`` and the same
    ``engine_stats``, which two untraced runs also agree on, so no key
    holds wall-clock content."""

    def run(trace_path=None):
        document = load_scenario(str(SCENARIOS / name))
        if trace_path is not None:
            set_dotted(document, "telemetry.trace_path", trace_path)
        horse, result, _count = run_scenario(document)
        horse.telemetry.disable_tracing()
        return result

    trace = str(tmp_path / "run.trace.jsonl")
    plain, again, traced = run(), run(), run(trace)
    assert any(r["kind"] == "kernel.event" for r in read_trace(trace))
    assert run_digest(traced) == run_digest(plain)
    assert traced.engine_stats == plain.engine_stats == again.engine_stats
    assert not [key for key in _keys(traced.engine_stats) if "wall" in key or "profile" in key]


_TRACE_TABLE_KIND = re.compile(r"`([a-z_]+\.[a-z_]+)`")


def _emitted_literal_kinds():
    """Every string literal passed first to ``.emit(`` / ``.span(``
    under ``src/repro``."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    kinds = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("emit", "span")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                kinds.add(node.args[0].value)
    return kinds


def test_every_emitted_kind_is_in_the_trace_kind_table():
    doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    documented = set()
    for line in doc.read_text().splitlines():
        if line.startswith("| `"):
            documented.update(_TRACE_TABLE_KIND.findall(line.split("|")[1]))
    emitted = _emitted_literal_kinds()
    assert "kernel.event" in emitted and "channel.flow_mod" in emitted
    assert sorted(emitted - documented) == []
