"""E13: sharded parallel runtime — speedup and accuracy at k=4.

The shard runtime's pitch is intra-run parallelism: partition the
topology, run each domain on its own core, synchronize conservatively
at quantum boundaries.  This experiment measures both halves on a
pod workload (4 disjoint pods, pod-local traffic — the embarrassingly
parallel case the partitioner must recognize):

* **speedup** — k=4 wall clock vs the identical unsharded run must be
  >= 1.8x.  The gate only arms on machines with >= 4 cores (CI runners
  qualify; a 1-core sandbox measures pure overhead and reports only).
* **accuracy** — per-flow delivered bytes must match the unsharded run
  within 5% for every flow (disjoint pods make the exchange exact, so
  in practice the deviation is zero).

Runs both as a pytest benchmark (``make bench``) and as a standalone
CI gate::

    python -m benchmarks.bench_e13_shard
"""

from __future__ import annotations

import copy
import os
import sys
import time

from repro.runtime.scenario import run_scenario

from .harness import record, rows, write_table

SPEEDUP_LIMIT = 1.8
RATE_TOLERANCE = 0.05
SHARDS = 4
MIN_CORES_FOR_GATE = 4

SCENARIO = {
    "schema_version": 1,
    "engine": "flow",
    "until": 10.0,
    "seed": 5,
    "topology": {
        "kind": "pods",
        "pods": SHARDS,
        "hosts_per_pod": 12,
        "capacity": "100 Mbps",
    },
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {
        "kind": "matrix",
        "model": "pod-local",
        "total": "2 Gbps",
        "horizon_s": 8.0,
    },
}


def _run(shards: int):
    scenario = copy.deepcopy(SCENARIO)
    scenario["shards"] = shards
    start = time.perf_counter()
    _horse, result, count = run_scenario(scenario)
    wall = time.perf_counter() - start
    return result, count, wall


def _worst_flow_deviation(base, sharded) -> float:
    reference = {f.flow_id: f for f in base.flows}
    worst = 0.0
    for flow in sharded.flows:
        ref = reference[flow.flow_id]
        if ref.bytes_delivered <= 0:
            continue
        deviation = (
            abs(flow.bytes_delivered - ref.bytes_delivered) / ref.bytes_delivered
        )
        worst = max(worst, deviation)
    return worst


def run_e13() -> dict:
    base, n1, wall_1 = _run(1)
    sharded, nk, wall_k = _run(SHARDS)
    assert n1 == nk, f"flow counts diverged: {n1} vs {nk}"
    assert len(base.flows) == len(sharded.flows)
    worst = _worst_flow_deviation(base, sharded)
    cores = os.cpu_count() or 1
    row = {
        "flows": n1,
        "shards": SHARDS,
        "rounds": sharded.engine_stats["rounds"],
        "cores": cores,
        "wall_1_s": round(wall_1, 3),
        "wall_k_s": round(wall_k, 3),
        "speedup": round(wall_1 / wall_k, 2),
        "worst_flow_dev": round(worst, 5),
        "gate_armed": cores >= MIN_CORES_FOR_GATE,
    }
    record("E13", row)
    return row


def check_e13(row: dict) -> None:
    assert row["worst_flow_dev"] <= RATE_TOLERANCE, row
    if row["gate_armed"]:
        assert row["speedup"] >= SPEEDUP_LIMIT, row
    else:
        print(
            f"e13: {row['cores']} core(s) < {MIN_CORES_FOR_GATE}; "
            f"speedup gate not armed (measured {row['speedup']}x)"
        )


def bench_e13_shard_speedup(benchmark):
    row = benchmark.pedantic(run_e13, rounds=1, iterations=1)
    check_e13(row)


def bench_e13_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    write_table("E13", "sharded runtime: k=4 wall clock and per-flow accuracy")
    assert rows("E13")


def main() -> int:
    row = run_e13()
    print(
        f"e13: {row['flows']} flows  unsharded {row['wall_1_s']}s  "
        f"k={SHARDS} {row['wall_k_s']}s  speedup {row['speedup']}x  "
        f"worst flow deviation {row['worst_flow_dev']}"
    )
    check_e13(row)
    print("e13: gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
