"""Cross-engine accuracy smoke (paper E3, fast variant).

The full E3 sweep lives in ``benchmarks/bench_e3_accuracy.py``; this
pytest-speed version pins its hardest small scenario (star-crossload:
four hosts on one switch, crossing demands that oversubscribe both
directions of h2's access link) and asserts the flow-level fluid model
lands within the same tolerance of the packet-level AIMD baseline.  It
runs the flow engine as shipped (incremental re-solve, route cache), so
it also guards the production path against accuracy drift.
"""

from repro import Horse, HorseConfig
from repro.flowsim import Flow
from repro.net.generators import single_switch
from repro.openflow.headers import tcp_flow
from repro.stats import mean_relative_error

DURATION = 4.0
HORIZON = 40.0
PAIRS = [("h1", "h2"), ("h3", "h2"), ("h4", "h1"), ("h2", "h3")]
DEMAND_BPS = 8e6


def _flows(topo):
    flows = []
    for i, (src, dst) in enumerate(PAIRS):
        s, d = topo.host(src), topo.host(dst)
        flows.append(
            Flow(
                headers=tcp_flow(s.ip, d.ip, 1000 + i, 80,
                                 eth_src=s.mac, eth_dst=d.mac),
                src=src,
                dst=dst,
                demand_bps=DEMAND_BPS,
                duration_s=DURATION,
            )
        )
    return flows


def _goodput(flows):
    out = {}
    for i, flow in enumerate(flows):
        end = flow.end_time or DURATION
        span = max(end - flow.start_time, 1e-9)
        out[i] = flow.bytes_delivered * 8.0 / span
    return out


def _run(engine):
    topo = single_switch(4, capacity_bps=10e6)
    flows = _flows(topo)
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine=engine),
    )
    horse.submit_flows(flows)
    horse.run(until=HORIZON)
    return flows


def test_flow_engine_tracks_packet_engine_goodput():
    flow_level = _run("flow")
    packet_level = _run("packet")
    err = mean_relative_error(_goodput(flow_level), _goodput(packet_level))
    # Same tolerance as bench_e3_accuracy.
    assert err < 0.40, err
    # Both engines must actually deliver the workload.
    assert all(f.bytes_delivered > 0 for f in flow_level)
    assert all(f.bytes_delivered > 0 for f in packet_level)
