"""E2 ("Figure 4"): simulation runtime vs traffic load.

The poster targets "high traffic loads".  We fix the fabric (IXP, 16
members) and sweep the offered load, measuring how runtime scales with
the number of flows for the flow-level engine, plus packet-level points
at the loads it can finish.

Expected shape: flow-level runtime grows roughly linearly in flow count
(wall time per flow stays within a small factor across a 16x load
sweep); packet-level cost per flow is far higher because it pays per
packet, not per flow.  Every load point runs ``harness.REPEATS`` times
and its wall columns show the median run.
"""

import statistics

import pytest

from .harness import (
    ixp_workload,
    median_run,
    pod_workload,
    record,
    rows,
    timed_solver_run,
    write_table,
)

MEMBERS = 16
FLOW_FRACTIONS = [0.25, 0.5, 1.0, 2.0, 4.0]
PACKET_FRACTIONS = [0.25, 0.5]
FLOW_DURATION = 2.0
PACKET_DURATION = 0.4

#: Solver hot-path comparison: 8 pods x 250 continuous flows = 2k
#: concurrent flows once the 1-second arrival spread completes.  Sized
#: so the full (reference) solver, which re-solves every flow per
#: event, finishes in seconds; horsebench's ``pod_hotpath`` is the
#: timing workload, this one pins the bitwise rate-vector equality.
HOTPATH_PODS = 8
HOTPATH_FLOWS_PER_POD = 250
HOTPATH_UNTIL = 1.5
HOTPATH_ROUNDS = {"full": 1, "incremental": 3}


def _run(engine: str, load_fraction: float, duration: float):
    _, flows, result, wall = median_run(
        lambda: ixp_workload(MEMBERS, duration_s=duration, load_fraction=load_fraction),
        engine, until=duration + 30.0,
    )
    record(
        "E2",
        {
            "engine": engine,
            "load_x": load_fraction,
            "flows": len(flows),
            "events": result.events,
            "wall_s": round(wall, 3),
            "wall_ms_per_flow": round(1000.0 * wall / max(len(flows), 1), 3),
            "events_per_s": round(result.events / wall),
            "delivered": round(result.delivered_fraction, 3),
        },
    )
    return result


@pytest.mark.parametrize("fraction", FLOW_FRACTIONS)
def bench_e2_flow_level(benchmark, fraction):
    result = benchmark.pedantic(
        _run, args=("flow", fraction, FLOW_DURATION), rounds=1, iterations=1
    )
    assert result.delivered_fraction > 0.99


@pytest.mark.parametrize("fraction", PACKET_FRACTIONS)
def bench_e2_packet_level(benchmark, fraction):
    result = benchmark.pedantic(
        _run, args=("packet", fraction, PACKET_DURATION), rounds=1, iterations=1
    )
    assert result.engine_summary["packets_delivered"] > 0


def _hotpath_once(solver: str):
    topo, flows = pod_workload(
        pods=HOTPATH_PODS, flows_per_pod=HOTPATH_FLOWS_PER_POD
    )
    return timed_solver_run(topo, flows, solver, until=HOTPATH_UNTIL)


@pytest.mark.parametrize("solver", ["full", "incremental"])
def bench_e2_solver_hotpath(benchmark, solver):
    """Incremental vs full re-solve at 2k concurrent flows.

    Both modes run the identical component kernel, so the final rate
    vectors must match bitwise; the incremental mode just re-solves only
    the pod an arrival touched."""
    walls = []
    rates = []

    def _once():
        wall, rate_vector = _hotpath_once(solver)
        walls.append(wall)
        rates.append(rate_vector)
        return wall

    benchmark.pedantic(_once, rounds=HOTPATH_ROUNDS[solver], iterations=1)
    record(
        "E2-hotpath",
        {
            "solver": solver,
            "flows": HOTPATH_PODS * HOTPATH_FLOWS_PER_POD,
            "rounds": len(walls),
            "wall_median_s": round(statistics.median(walls), 3),
        },
    )
    record("E2-hotpath-rates", {"solver": solver, "rates": rates[-1]})


def bench_e2_hotpath_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_solver = {r["solver"]: r for r in rows("E2-hotpath")}
    rates = {r["solver"]: r["rates"] for r in rows("E2-hotpath-rates")}
    # Differential gate: bitwise-identical rate vectors.
    assert rates["full"] == rates["incremental"]
    full_s = by_solver["full"]["wall_median_s"]
    inc_s = by_solver["incremental"]["wall_median_s"]
    speedup = full_s / inc_s
    assert speedup >= 3.0, (by_solver, speedup)
    write_table("E2-hotpath", "solver hot path at 2k concurrent flows")


def bench_e2_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = rows("E2")
    flow_rows = [r for r in table if r["engine"] == "flow"]
    packet_rows = [r for r in table if r["engine"] == "packet"]
    # Shape 1: flow-level per-flow cost stays within ~8x across the
    # 16x load sweep (roughly linear scaling in flow events).
    costs = [r["wall_ms_per_flow"] for r in flow_rows]
    assert max(costs) < 8 * max(min(costs), 0.01), costs
    # Shape 2: packet-level costs far more per flow at matched load.
    flow_low = next(r for r in flow_rows if r["load_x"] == 0.25)
    packet_low = next(r for r in packet_rows if r["load_x"] == 0.25)
    assert (
        packet_low["wall_ms_per_flow"] > 5 * flow_low["wall_ms_per_flow"]
    ), (packet_low, flow_low)
    write_table("E2", "runtime vs offered load (IXP-16)")
