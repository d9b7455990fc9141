"""Statistics tests: time series, metrics, collector."""

import pytest

from repro.stats import (
    RunStatsCollector,
    TimeSeries,
    jain_fairness,
    mean_relative_error,
    percentiles,
    relative_error,
    rmse,
    speedup,
    summarize,
)


class TestTimeSeries:
    def test_append_and_stats(self):
        ts = TimeSeries("x")
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]:
            ts.append(t, v)
        assert len(ts) == 3
        assert ts.mean() == pytest.approx(2.0)
        assert ts.maximum() == 3.0
        assert ts.percentile(50) == 2.0

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries()
        ts.append(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_value_at_step_semantics(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert ts.value_at(0.5) is None
        assert ts.value_at(1.0) == 10.0
        assert ts.value_at(1.9) == 10.0
        assert ts.value_at(5.0) == 20.0

    def test_window(self):
        ts = TimeSeries()
        for t in range(5):
            ts.append(float(t), float(t))
        window = ts.window(1.0, 3.0)
        assert window.times == [1.0, 2.0]

    def test_resample_holds_last_value(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(2.5, 5.0)
        grid = ts.resample(1.0, end=3.0)
        assert grid.values == [1.0, 1.0, 1.0, 5.0]

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.append(0.0, 0.0)
        ts.append(1.0, 10.0)  # 0 held 1s, 10 held until end
        assert ts.time_weighted_mean(until=2.0) == pytest.approx(5.0)

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean() == 0.0
        assert ts.time_weighted_mean() == 0.0
        assert len(ts.resample(1.0)) == 0


class TestMetrics:
    def test_jain_bounds(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_fairness([]) == 1.0

    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_mean_relative_error_over_keys(self):
        measured = {"a": 11.0, "b": 18.0}
        reference = {"a": 10.0, "b": 20.0}
        assert mean_relative_error(measured, reference) == pytest.approx(0.1)

    def test_rmse(self):
        assert rmse([1, 2], [1, 2]) == 0.0
        assert rmse([0, 0], [3, 4]) == pytest.approx(3.5355, rel=1e-3)
        with pytest.raises(ValueError):
            rmse([1], [1, 2])

    def test_percentiles_and_summary(self):
        values = list(range(1, 101))
        p = percentiles(values, (50, 99))
        assert p[50] == pytest.approx(50.5)
        s = summarize(values)
        assert s["count"] == 100
        assert s["max"] == 100
        assert summarize([])["count"] == 0

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == float("inf")


class TestCollector:
    def test_flow_lifecycle_collection(self, line2, install_path):
        from repro.flowsim import Flow, FlowLevelEngine
        from repro.openflow.headers import tcp_flow
        from repro.sim import Simulator

        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        collector = RunStatsCollector(line2)
        collector.enable_link_sampling(sim, interval=0.5)
        h1, h2 = line2.host("h1"), line2.host("h2")
        flow = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
            src="h1",
            dst="h2",
            demand_bps=8e6,
            size_bytes=2_000_000,
        )
        engine.submit(flow)
        sim.run()
        collector.harvest_flows(engine.flows)
        assert collector.completed == [flow]
        assert collector.fct_summary()["count"] == 1
        assert collector.fairness() == 1.0
        throughput = collector.throughput_by_flow()[flow.flow_id]
        assert throughput == pytest.approx(8e6, rel=0.01)
        # Link sampling caught the busy uplink at 80% utilization.
        peak = collector.max_link_utilization()
        assert max(peak.values()) == pytest.approx(0.8, rel=0.05)

    def test_harvest_from_any_engine(self, line2, install_path):
        from repro.flowsim import Flow, FlowState
        from repro.openflow.headers import tcp_flow

        h1, h2 = line2.host("h1"), line2.host("h2")
        flow = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
            src="h1",
            dst="h2",
            demand_bps=1e6,
            size_bytes=1000,
        )
        flow.state = FlowState.COMPLETED
        flow.end_time = 1.0
        collector = RunStatsCollector(line2)
        collector.harvest_flows({flow.flow_id: flow})
        collector.harvest_flows({flow.flow_id: flow})  # no duplicates
        assert collector.completed == [flow]

    def test_horse_collects_nothing_per_flow(self):
        """RunResult is built from engine.flows; the collector Horse
        owns observes no engine and holds nothing that grows with the
        number of flows (so neither does a checkpoint, through it)."""
        from repro import Horse
        from repro.net.generators import tree

        from workloads import make_flow

        topo = tree(2, 2)
        horse = Horse(topo, policies={"forwarding": "shortest-path"})
        assert horse.engine.observers == []
        horse.submit_flows(
            make_flow(topo, "h1", "h4", demand=1e6, size=10_000, sport=1000 + i)
            for i in range(20)
        )
        result = horse.run()
        assert result.row()["completed"] == 20
        assert horse.engine.observers == []
        state = dict(vars(horse.collector))
        assert state.pop("topology") is topo
        assert state == {"completed": [], "link_utilization": {}}
