"""E9 (extension): failure recovery — controller repair vs fast failover.

A controller that recomputes paths on port-status (ShortestPathApp)
loses traffic for one control round trip per failure; pre-installed
FAST_FAILOVER groups (PathProtectionApp) switch in the data plane with
zero control involvement.  We script two failures on a triangle mesh
with a 50 ms control channel and compare delivered bytes against the
no-failure ideal, on the flow engine and on the packet engine (ground
truth: a failure is the same input event on both).

Expected shape: protection delivers ~the ideal volume; controller
repair loses ≈ rate x latency per failure event; the two engines'
deficits agree within 1 %.
"""

import pytest

from repro import Flow
from repro.control import ControlChannel, Controller
from repro.control.apps import PathProtectionApp, ShortestPathApp
from repro.flowsim import FlowLevelEngine
from repro.net.generators import full_mesh
from repro.openflow import attach_pipeline
from repro.openflow.headers import udp_flow
from repro.pktsim import PacketLevelEngine
from repro.sim import Simulator

from .harness import record, rows, write_table

LATENCY_S = 0.05
RATE_BPS = 100e6
DURATION_S = 12.0
FAILURES = [(2.0, 4.0), (6.0, 8.0)]  # (fail, restore) on s1-s2
ENGINES = {"flow": FlowLevelEngine, "packet": PacketLevelEngine}


def _run(mode: str, engine_name: str):
    topo = full_mesh(3, hosts_per_switch=1)
    for switch in topo.switches:
        attach_pipeline(switch)
    sim = Simulator()
    controller = Controller()
    if mode == "controller-repair":
        controller.add_app(ShortestPathApp(match_on="ip_dst"))
    else:
        controller.add_app(PathProtectionApp(match_on="ip_dst"))
    channel = ControlChannel(
        sim, topo, controller=controller, latency_s=LATENCY_S
    )
    engine = ENGINES[engine_name](sim, topo, control=channel)
    channel.connect_engine(engine)
    # Proactive installs also pay the latency; run them in before t=0
    # traffic by letting the mods land first.
    controller.start()
    sim.run(until=1.0)

    h1, h2 = topo.host("h1"), topo.host("h2")
    # Constant bit rate, so both engines offer the same bytes.
    flow = Flow(
        headers=udp_flow(h1.ip, h2.ip, 1000, 80),
        src="h1",
        dst="h2",
        demand_bps=RATE_BPS,
        duration_s=DURATION_S,
        start_time=1.0,
        elastic=False,
    )
    engine.submit(flow)
    for fail_at, restore_at in FAILURES:
        engine.fail_link_at(1.0 + fail_at, "s1", "s2")
        engine.restore_link_at(1.0 + restore_at, "s1", "s2")
    sim.run(until=30.0)
    engine.finish()

    ideal = RATE_BPS * DURATION_S / 8.0
    deficit = ideal - flow.bytes_delivered
    record(
        "E9",
        {
            "mode": mode,
            "engine": engine_name,
            "failures": len(FAILURES),
            "latency_ms": LATENCY_S * 1000,
            "delivered_MB": round(flow.bytes_delivered / 1e6, 3),
            "ideal_MB": round(ideal / 1e6, 3),
            "deficit_KB": round(deficit / 1e3, 1),
            "reroutes": flow.reroutes,
        },
    )
    return flow, deficit


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize("mode", ["controller-repair", "fast-failover"])
def bench_e9_recovery(benchmark, mode, engine_name):
    flow, deficit = benchmark.pedantic(
        _run, args=(mode, engine_name), rounds=1, iterations=1
    )
    assert flow.bytes_delivered > 0
    if engine_name == "flow":  # the packet engine keeps no route per flow
        assert flow.reroutes >= 2 * len(FAILURES)


def bench_e9_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_run = {(r["mode"], r["engine"]): r for r in rows("E9")}
    expected_kb = RATE_BPS * LATENCY_S * len(FAILURES) / 8.0 / 1e3
    for engine_name in ENGINES:
        repair = by_run["controller-repair", engine_name]
        failover = by_run["fast-failover", engine_name]
        # Data-plane failover loses (essentially) nothing.
        assert failover["deficit_KB"] < 5.0, failover
        # Controller repair loses about rate x latency per failure:
        # 100 Mb/s x 50 ms x 2 = 1.25 MB (1250 KB); allow slack for the
        # coalesced sweep landing within the same control epoch.
        assert repair["deficit_KB"] > 0.5 * expected_kb, (repair, expected_kb)
    # The packet engine is ground truth: the deficits agree within 1 %.
    for mode in ("controller-repair", "fast-failover"):
        flow_kb = by_run[mode, "flow"]["deficit_KB"]
        packet_kb = by_run[mode, "packet"]["deficit_KB"]
        assert abs(packet_kb - flow_kb) <= 0.01 * flow_kb, (mode, flow_kb, packet_kb)
    write_table("E9", "failure recovery: controller repair vs fast failover")
