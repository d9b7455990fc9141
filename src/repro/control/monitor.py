"""Monitoring: periodic export of traffic statistics to the control plane.

The poster: statistics are "updated after every event and exported to a
control plane module", with primitives covering "typical network
measurements such as link bandwidth and SDN-enabled ones (i.e., OpenFlow
counters)".  :class:`NetworkMonitor` samples port counters on a fixed
cadence, derives per-egress-link rates and utilizations from counter
deltas, and hands each :class:`~repro.telemetry.MonitorSample` to the
controller's apps (and any extra callbacks) — the input reactive
policies act on.

Two acquisition modes share one derivation path, so they produce
identical samples at the same cadence (asserted by ``tests/diff``):

* ``mode="poll"`` (default) — the monitor reads counters itself through
  the channel's public :meth:`~repro.control.channel.ControlChannel
  .port_stats` every interval.
* ``mode="push"`` — the monitor registers a
  :meth:`~repro.control.channel.ControlChannel.subscribe_counters` feed
  and receives counter samples without polling; ``min_delta_bytes``
  suppresses pushes while counters are quiet.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry.sample import MonitorSample, PortKey as PortKey  # re-export

MONITOR_MODES = ("poll", "push")


class NetworkMonitor:
    """Port-counter sampling and utilization estimation.

    Parameters
    ----------
    channel:
        The control channel (stats are read through its public port-stats
        API; per the poster's abstraction the read itself is the
        simulator's state export, so it is synchronous even when the
        message channel has latency).
    interval:
        Sampling period in seconds.
    threshold:
        Egress utilization above which a link appears in the sample's
        ``congested`` list.
    mode:
        ``"poll"`` or ``"push"`` (see module docstring).
    min_delta_bytes:
        Push mode only: suppress a push unless some port counter moved
        at least this much since the last delivered push.
    """

    def __init__(
        self,
        channel,
        interval: float = 1.0,
        threshold: float = 0.9,
        mode: str = "poll",
        min_delta_bytes: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if mode not in MONITOR_MODES:
            raise ValueError(f"mode must be one of {MONITOR_MODES}, got {mode!r}")
        self.channel = channel
        self.interval = interval
        self.threshold = threshold
        self.mode = mode
        self.min_delta_bytes = min_delta_bytes
        self._last_counters: Dict[PortKey, Tuple[int, int]] = {}
        self._last_time: Optional[float] = None
        self.samples: List[MonitorSample] = []
        self.callbacks: List[Callable[[MonitorSample], None]] = []
        self._started = False
        # What start() armed: the poll timer or the push subscription.
        self._feed = None
        # Per-port maxima, kept as samples arrive: metrics_snapshot runs
        # inside every Horse.run, so it must not scan the history.
        self._max_util: Dict[PortKey, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, first_at: Optional[float] = None) -> None:
        """Begin sampling on the channel's kernel."""
        if self._started:
            return
        self._started = True
        if self.mode == "push":
            # The subscription captures the datapath set now, in the same
            # topology order the polled path iterates.
            self._feed = self.channel.subscribe_counters(
                self._on_push,
                self.interval,
                min_delta_bytes=self.min_delta_bytes,
                start=first_at,
            )
        else:
            self._feed = self.channel.sim.every(
                self.interval, self._tick, start=first_at
            )

    def stop(self) -> None:
        """Stop sampling now: the poll timer or the push feed is cancelled."""
        if self._feed is None:
            return
        if self.mode == "push":
            self._feed.cancel()
        else:
            self.channel.sim.cancel(self._feed)

    # ------------------------------------------------------------------
    # Acquisition (both modes funnel into _record)
    # ------------------------------------------------------------------
    def _tick(self, sim, t: float) -> None:
        self._record(self.sample_now(t))

    def _on_push(self, t: float, replies) -> None:
        self._record(self._sample_from_replies(t, replies))

    def sample_now(self, t: float) -> MonitorSample:
        """Take one sample immediately (advances the delta baseline but
        does not record it — recording happens on the sampling cadence)."""
        replies = [
            self.channel.port_stats(switch.dpid)
            for switch in self.channel.topology.switches
        ]
        return self._sample_from_replies(t, replies)

    def _sample_from_replies(self, t: float, replies) -> MonitorSample:
        """Derive rates/utilization from port-stats replies — the single
        derivation both modes share, so poll and push agree bitwise."""
        tx_bps: Dict[PortKey, float] = {}
        rx_bps: Dict[PortKey, float] = {}
        utilization: Dict[PortKey, float] = {}
        congested: List[PortKey] = []
        dt = None if self._last_time is None else t - self._last_time
        topology = self.channel.topology
        for reply in replies:
            switch = topology.switch_by_dpid(reply.dpid)
            for stat in reply.stats:
                port_no = stat["port_no"]
                key = (switch.name, port_no)
                counters = (stat["tx_bytes"], stat["rx_bytes"])
                last = self._last_counters.get(key)
                self._last_counters[key] = counters
                if last is None or not dt or dt <= 0:
                    continue
                tx_rate = (counters[0] - last[0]) * 8.0 / dt
                rx_rate = (counters[1] - last[1]) * 8.0 / dt
                tx_bps[key] = tx_rate
                rx_bps[key] = rx_rate
                port = switch.port(port_no)
                if port.link is not None and port.link.capacity_bps > 0:
                    util = tx_rate / port.link.capacity_bps
                    utilization[key] = util
                    if util >= self.threshold:
                        congested.append(key)
        self._last_time = t
        return MonitorSample(
            time=t,
            tx_bps=tx_bps,
            rx_bps=rx_bps,
            utilization=utilization,
            congested=congested,
        )

    def _record(self, sample: MonitorSample) -> None:
        """History, per-port maxima, and delivery — shared by both modes
        so their observable effects are identical."""
        for key, value in sample.utilization.items():
            if value > self._max_util.get(key, 0.0):
                self._max_util[key] = value
        self.samples.append(sample)
        controller = self.channel.controller
        if controller is not None and hasattr(controller, "on_monitor_sample"):
            controller.on_monitor_sample(sample)
        for callback in self.callbacks:
            callback(sample)

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    # `samples` is the one history: the monitor appends to it and nobody
    # else edits it, so the per-port maxima always agree with a scan.
    def utilization_series(self, key: PortKey) -> List[Tuple[float, float]]:
        """(time, utilization) points for one egress port."""
        return [
            (sample.time, sample.utilization[key])
            for sample in self.samples
            if key in sample.utilization
        ]

    def max_utilization(self) -> Dict[PortKey, float]:
        """Per-port maximum utilization across the run (O(ports))."""
        return dict(self._max_util)

    def metrics_snapshot(self) -> dict:
        """Monitor aggregates for the metrics registry (picklable bound
        method; see :class:`repro.telemetry.MetricsRegistry`)."""
        out = {
            "mode": self.mode,
            "samples": len(self.samples),
            "max_utilization": self.max_utilization(),
        }
        if self.samples:
            out["congested_ports"] = len(self.samples[-1].congested)
        return out
