"""Telemetry tests: registry, trace bus, profiler, and the hub."""

import ast
import pathlib
import re

import pytest

from repro import Flow, Horse, HorseConfig
from repro.errors import TelemetryError
from repro.net.generators import tree
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator
from repro.telemetry import (
    MetricsRegistry,
    PhaseProfiler,
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


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        profiler.add("solve", 0.25)
        profiler.add("solve", 0.5)
        with profiler.phase("route"):
            pass
        snap = profiler.snapshot()
        assert snap["solve"] == {"wall_s": 0.75, "count": 2}
        assert snap["route"]["count"] == 1


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

    def test_late_bind_applies_live_bus(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        bus = telemetry.enable_tracing()
        telemetry.bind(sim)
        assert sim.trace_bus is bus

    def test_profiler_lives_on_the_kernel(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        profiler = telemetry.enable_profiling()
        assert sim.profiler is profiler
        assert telemetry.enable_profiling() is profiler  # idempotent
        sim.call_in(1.0, lambda s: None)
        sim.run()
        assert profiler.snapshot()["dispatch"]["count"] == 1


class TestHorseIntegration:
    def test_disabled_telemetry_is_a_no_op(self):
        _, horse = small_horse()
        assert horse.sim.trace_bus is None
        assert horse.engine.trace_bus is None
        assert horse.channel.trace_bus is None
        assert not horse.telemetry.tracing_enabled
        result = horse.run()
        # No trace anywhere, no wall-clock profile in the stats.
        assert horse.sim.trace_bus is None
        assert "profile" not in result.engine_stats
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

    def test_profiling_via_config_reports_phases(self):
        _, horse = small_horse(telemetry={"profile": True})
        result = horse.run()
        profile = result.engine_stats["profile"]
        assert set(profile) >= {"dispatch", "solve", "route"}
        assert profile["dispatch"]["count"] > 0

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
