"""E1 ("Figure 3"): simulation runtime vs topology size.

The poster claims Horse can "efficiently reproduce large scale
networks".  We scale an IXP fabric's member count at constant offered
load per member and measure wall-clock time for the flow-level engine,
against the in-repo packet-level baseline (the Mininet/ns-3 stand-in) on
the sizes it can finish.  The packet engine's per-simulated-second cost
is orders of magnitude higher, so its points use a shorter horizon; the
normalized column (wall seconds per simulated gigabyte of traffic) is
the comparable metric.  Every point runs ``harness.REPEATS`` times and
its wall columns show the median run.

Expected shape: flow-level cost grows gently with members; packet-level
cost per simulated second at the SAME size is >= 5x higher.
"""

import pytest

from .harness import ixp_workload, median_run, record, rows, write_table

FLOW_MEMBERS = [8, 16, 32, 64]
PACKET_MEMBERS = [4, 8]
FLOW_DURATION = 2.0
PACKET_DURATION = 0.5


def _run(members: int, engine: str, duration: float, load_fraction: float):
    fabric, flows, result, wall = median_run(
        lambda: ixp_workload(members, duration_s=duration, load_fraction=load_fraction),
        engine, until=duration + 30.0,
    )
    gigabytes = max(result.engine_summary["bytes_sent"], 1.0) / 1e9
    record(
        "E1",
        {
            "engine": engine,
            "members": members,
            "switches": len(fabric.topology.switches),
            "flows": len(flows),
            "sim_s": round(result.sim_time_s, 2),
            "events": result.events,
            "wall_s": round(wall, 3),
            "wall_per_gb": round(wall / gigabytes, 4),
            "delivered": round(result.delivered_fraction, 3),
        },
    )
    return result


@pytest.mark.parametrize("members", FLOW_MEMBERS)
def bench_e1_flow_level(benchmark, members):
    result = benchmark.pedantic(
        _run, args=(members, "flow", FLOW_DURATION, 0.5), rounds=1, iterations=1
    )
    assert result.delivered_fraction > 0.99


@pytest.mark.parametrize("members", PACKET_MEMBERS)
def bench_e1_packet_level(benchmark, members):
    result = benchmark.pedantic(
        _run,
        args=(members, "packet", PACKET_DURATION, 0.5),
        rounds=1,
        iterations=1,
    )
    assert result.engine_summary["packets_delivered"] > 0


def bench_e1_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = rows("E1")
    by_key = {(r["engine"], r["members"]): r for r in table}
    # Shape 1: at the same size (8 members), flow-level is dramatically
    # cheaper per simulated gigabyte than packet-level.
    flow8 = by_key[("flow", 8)]["wall_per_gb"]
    packet8 = by_key[("packet", 8)]["wall_per_gb"]
    assert packet8 > 5 * flow8, (flow8, packet8)
    # Shape 2: flow-level scales to 8x the members the packet engine ran,
    # still in seconds of wall time.
    flow64 = by_key[("flow", 64)]
    assert flow64["wall_s"] < 120
    write_table("E1", "runtime vs topology size (IXP members)")
