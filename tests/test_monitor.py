"""Monitoring tests: counter polling, pushes, utilization, thresholds."""

import pytest

from repro.control import ControlChannel, Controller, NetworkMonitor
from repro.flowsim import Flow, FlowLevelEngine
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator
from repro.telemetry import MonitorSample


@pytest.fixture
def running(line2, install_path):
    install_path(line2, "h1", "h2")
    sim = Simulator()
    controller = Controller()
    channel = ControlChannel(sim, line2, controller=controller)
    engine = FlowLevelEngine(sim, line2, control=channel)
    channel.connect_engine(engine)
    return sim, line2, channel, engine


def steady_flow(topo, demand=8e6, duration=10.0):
    h1, h2 = topo.host("h1"), topo.host("h2")
    return Flow(
        headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
        src="h1",
        dst="h2",
        demand_bps=demand,
        duration_s=duration,
    )


class TestSampling:
    def test_rates_derived_from_counter_deltas(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.start()
        engine.submit(steady_flow(topo, demand=8e6))
        sim.run(until=5.0)
        # After warm-up, the s1->s2 egress carries 8 Mb/s.
        sample = monitor.samples[-1]
        key = ("s1", topo.egress_port("s1", "s2").number)
        assert sample.tx_bps[key] == pytest.approx(8e6, rel=0.05)
        assert sample.utilization[key] == pytest.approx(0.8, rel=0.05)

    def test_first_sample_has_no_rates(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.start()
        sim.run(until=1.5)
        assert monitor.samples[0].tx_bps == {}

    def test_congested_list_respects_threshold(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0, threshold=0.5)
        monitor.start()
        engine.submit(steady_flow(topo, demand=8e6))
        sim.run(until=5.0)
        key = ("s1", topo.egress_port("s1", "s2").number)
        assert key in monitor.samples[-1].congested

    def test_idle_network_not_congested(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0, threshold=0.5)
        monitor.start()
        sim.run(until=3.0)
        assert all(not s.congested for s in monitor.samples)

    def test_callbacks_invoked(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        seen = []
        monitor.callbacks.append(lambda s: seen.append(s.time))
        monitor.start()
        sim.run(until=3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_start_is_idempotent(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.start()
        monitor.start()
        sim.run(until=2.5)
        assert len(monitor.samples) == 2

    def test_stop_cancels_the_tick_at_once(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.stop()  # before start: nothing to cancel
        monitor.start()
        sim.run(until=2.5)
        assert sim.pending == 1
        monitor.stop()
        assert sim.pending == 0
        sim.run(until=6.0)
        assert len(monitor.samples) == 2

    def test_invalid_interval(self, running):
        _, _, channel, _ = running
        with pytest.raises(ValueError):
            NetworkMonitor(channel, interval=0)

    def test_invalid_mode(self, running):
        _, _, channel, _ = running
        with pytest.raises(ValueError):
            NetworkMonitor(channel, interval=1.0, mode="pull")


class TestPushMode:
    def test_push_samples_on_cadence(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0, mode="push")
        monitor.start()
        engine.submit(steady_flow(topo, demand=8e6))
        sim.run(until=4.5)
        assert [s.time for s in monitor.samples] == [1.0, 2.0, 3.0, 4.0]
        key = ("s1", topo.egress_port("s1", "s2").number)
        assert monitor.samples[-1].tx_bps[key] == pytest.approx(8e6, rel=0.05)
        assert channel.stats["counter_pushes"] == 4

    def test_min_delta_suppresses_idle_pushes(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(
            channel, interval=1.0, mode="push", min_delta_bytes=1000.0
        )
        monitor.start()
        sim.run(until=5.5)
        # First push delivers (no baseline yet); the idle rest suppress.
        assert len(monitor.samples) == 1

    def test_min_delta_delivers_when_counters_move(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(
            channel, interval=1.0, mode="push", min_delta_bytes=1000.0
        )
        monitor.start()
        engine.submit(steady_flow(topo, demand=8e6, duration=2.5))
        sim.run(until=6.5)
        times = [s.time for s in monitor.samples]
        # Active seconds push; the idle tail is suppressed.
        assert 1.0 in times and 2.0 in times
        assert times[-1] <= 4.0

    def test_stop_cancels_subscription(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0, mode="push")
        monitor.start()
        sim.run(until=2.5)
        monitor.stop()
        assert channel.subscriptions == [] and sim.pending == 0
        sim.run(until=6.0)
        assert len(monitor.samples) == 2


class TestSeriesHelpers:
    def test_utilization_series_and_max(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.start()
        engine.submit(steady_flow(topo, demand=4e6, duration=3.0))
        sim.run(until=6.0)
        key = ("s1", topo.egress_port("s1", "s2").number)
        series = monitor.utilization_series(key)
        assert len(series) >= 3
        peak = monitor.max_utilization()[key]
        assert peak == pytest.approx(0.4, rel=0.1)

    def test_helpers_equal_a_scan_of_samples(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=0.5)
        monitor.start()
        engine.submit(steady_flow(topo, demand=4e6, duration=3.0))
        h1, h2 = topo.host("h1"), topo.host("h2")
        engine.submit(Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1001, 80), src="h1", dst="h2",
            demand_bps=7e6, duration_s=1.2, start_time=0.7,
        ))
        sim.run(until=6.0)
        peaks = {}
        for sample in monitor.samples:
            for key, value in sample.utilization.items():
                if value > peaks.get(key, 0.0):
                    peaks[key] = value
        assert peaks and monitor.max_utilization() == peaks
        for key in peaks:
            assert monitor.utilization_series(key) == [
                (sample.time, sample.utilization[key])
                for sample in monitor.samples
                if key in sample.utilization
            ]


class TestSampleAsDict:
    def test_as_dict_of_a_live_sample(self, running):
        sim, topo, channel, engine = running
        monitor = NetworkMonitor(channel, interval=1.0)
        monitor.start()
        sim.run(until=1.5)
        assert monitor.samples[0].as_dict()["time"] == 1.0


class TestMonitorSampleUnit:
    def test_fields_and_defaults(self):
        sample = MonitorSample(time=1.0)
        assert sample.tx_bps == {} and sample.congested == []

    def test_as_dict_round_trip(self):
        sample = MonitorSample(
            time=2.0, tx_bps={("s1", 1): 5.0}, utilization={("s1", 1): 0.5}
        )
        doc = sample.as_dict()
        assert doc["utilization"] == {("s1", 1): 0.5}
