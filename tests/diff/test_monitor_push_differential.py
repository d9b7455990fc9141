"""Differential test: polled vs. pushed monitoring.

The push path must be an *acquisition* change only: at the same cadence
with no delta suppression, a reactive control loop driven by pushed
counter samples must make exactly the decisions the polled loop makes —
same samples, same group re-weightings, and bitwise-identical final
flow rates.  Any drift means the two modes diverged somewhere between
counter read-out and sample delivery.
"""

import json

from repro import Flow, Horse, HorseConfig
from repro.net.generators import leaf_spine
from repro.openflow.headers import tcp_flow


def _run(mode: str):
    topo = leaf_spine(
        3, 2, hosts_per_leaf=2, leaf_bps=1e9, spine_bps=1e9
    )
    horse = Horse(
        topo,
        policies={
            "load_balancing": {
                "mode": "reactive",
                "match_on": "ip_dst",
                "threshold": 0.5,
            }
        },
        config=HorseConfig(
            telemetry={"monitor_interval_s": 0.5, "monitor_mode": mode},
        ),
    )
    # Three elephants all leaving leaf1: the per-destination hashes pile
    # onto one spine uplink, so the watched spread crosses the reactive
    # balancer's hysteresis and it actually re-weights groups.
    pairs = [("h1", "h3"), ("h1", "h5"), ("h2", "h4")]
    flows = []
    for i, (src, dst) in enumerate(pairs):
        s, d = topo.host(src), topo.host(dst)
        flows.append(
            Flow(
                headers=tcp_flow(s.ip, d.ip, 40000 + i, 80),
                src=src,
                dst=dst,
                demand_bps=700e6,
                duration_s=6.0,
            )
        )
    horse.submit_flows(flows)
    result = horse.run(until=8.0)
    return topo, horse, flows, result


def _fingerprint(horse, flows, result):
    monitor = horse.monitor()
    return {
        "events": result.events,
        # Positional, not by flow id: ids are process-global counters.
        "flows": [
            (
                f.state.name,
                f.end_time,
                f.bytes_sent,       # exact float, no rounding
                f.rate_bps,         # bitwise final rate
                tuple(d.key for d in f.route.directions) if f.route else (),
            )
            for f in flows
        ],
        "rebalances": horse.controller.app("reactive-lb").rebalances,
        "samples": [
            {
                "time": s.time,
                "tx_bps": sorted(s.tx_bps.items()),
                "utilization": sorted(s.utilization.items()),
                "congested": sorted(s.congested),
            }
            for s in monitor.samples
        ],
    }


class TestPushedMonitoringMatchesPolled:
    def test_identical_decisions_and_final_rates(self):
        topo_a, horse_a, flows_a, result_a = _run("poll")
        topo_b, horse_b, flows_b, result_b = _run("push")
        fp_poll = _fingerprint(horse_a, flows_a, result_a)
        fp_push = _fingerprint(horse_b, flows_b, result_b)
        # The reactive loop actually engaged (the diff is not vacuous).
        assert fp_poll["rebalances"] > 0
        assert len(fp_poll["samples"]) >= 10
        # Byte-identical dynamics, sample for sample.
        assert json.dumps(fp_poll, sort_keys=True, default=str) == json.dumps(
            fp_push, sort_keys=True, default=str
        )

    def test_push_mode_skips_stats_polling(self):
        _, horse_poll, _, _ = _run("poll")
        _, horse_push, _, _ = _run("push")
        assert horse_push.channel.stats["counter_pushes"] > 0
        assert horse_poll.channel.stats["counter_pushes"] == 0
        # Pushed samples ride the subscription, not stats request events.
        assert (
            horse_push.channel.stats["stats_requests"]
            <= horse_poll.channel.stats["stats_requests"]
        )
