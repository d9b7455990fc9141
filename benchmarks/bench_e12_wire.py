"""E12: control-path cost of real OpenFlow connections vs in-process.

The follow-up paper re-adds real controller connections to Horse; the
price is that every reactive exchange now crosses a TCP socket (encode,
kernel round trip, decode) instead of a Python method call.  This
experiment measures that price on a learning-switch workload whose
every flow triggers packet-ins: the same topology and traffic run once
with the in-proc ``L2LearningApp`` and once with ``control="wire"``
plus the built-in learning client over loopback, and the gate is

* identical run digests (the wire leg must not change the simulation),
* wire control-path wall clock <= 25x the in-proc control path
  (best-of-N walls; loopback syscalls are expected to cost 1-2 orders
  of magnitude more than method calls, but not unboundedly more).

Also reports per-exchange latency: blocked wall seconds divided by
completed round trips.

Runs both as a pytest benchmark (``make bench``) and as a standalone
CI smoke gate::

    python -m benchmarks.bench_e12_wire
"""

from __future__ import annotations

import sys
import time

from repro import Horse, HorseConfig
from repro.control.apps import L2LearningApp
from repro.control.controller import Controller
from repro.flowsim import Flow
from repro.net.generators import linear
from repro.openflow.headers import tcp_flow
from repro.runtime.scenario import reset_id_counters
from repro.stats.export import run_digest

from .harness import record, rows, write_table

OVERHEAD_LIMIT = 25.0
ROUNDS = 3
HOSTS_PER_SWITCH = 2
SWITCHES = 3
FLOW_PAIRS = 24


def _flows(topo):
    """A packet-in-heavy workload: many short bidirectional flows."""
    hosts = [h.name for h in topo.hosts]
    flows = []
    for i in range(FLOW_PAIRS):
        src = hosts[i % len(hosts)]
        dst = hosts[(i + 1 + i // len(hosts)) % len(hosts)]
        if src == dst:
            dst = hosts[(i + 2) % len(hosts)]
        s, d = topo.host(src), topo.host(dst)
        flows.append(
            Flow(
                headers=tcp_flow(s.ip, d.ip, 1000 + i, 80,
                                 eth_src=s.mac, eth_dst=d.mac),
                src=src,
                dst=dst,
                demand_bps=2e6,
                size_bytes=200_000,
                start_time=0.05 * i,
            )
        )
    return flows


def _run(wire: bool):
    reset_id_counters()
    topo = linear(SWITCHES, hosts_per_switch=HOSTS_PER_SWITCH)
    if wire:
        horse = Horse(
            topo,
            config=HorseConfig(
                control="wire",
                wire={"client": "learning", "latency_budget_s": 30.0},
            ),
        )
    else:
        controller = Controller()
        controller.add_app(L2LearningApp())
        horse = Horse(topo, controller=controller)
    horse.submit_flows(_flows(topo))
    start = time.perf_counter()
    result = horse.run()
    wall = time.perf_counter() - start
    horse.shutdown_wire()
    return result, wall


def run_e12() -> dict:
    """One full comparison; returns the measured row (also recorded)."""
    inproc_walls, wire_walls = [], []
    for _ in range(ROUNDS):
        inproc_result, wall = _run(wire=False)
        inproc_walls.append(wall)
    for _ in range(ROUNDS):
        wire_result, wall = _run(wire=True)
        wire_walls.append(wall)

    inproc_digest = run_digest(inproc_result)
    wire_digest = run_digest(wire_result)
    metrics = wire_result.metrics
    round_trips = metrics.get("wire.gate_completed", 0.0)
    blocked = metrics.get("wire.gate_blocked_wall_s", 0.0)
    per_exchange_us = (
        blocked / round_trips * 1e6 if round_trips else 0.0
    )
    overhead = min(wire_walls) / min(inproc_walls)
    row = {
        "packet_ins": int(metrics.get("wire.packet_ins_sent", 0.0)),
        "round_trips": int(round_trips),
        "budget_misses": int(metrics.get("wire.gate_budget_misses", 0.0)),
        "per_exchange_us": round(per_exchange_us, 1),
        "inproc_wall_s": round(min(inproc_walls), 4),
        "wire_wall_s": round(min(wire_walls), 4),
        "overhead": round(overhead, 2),
        "digests_match": inproc_digest == wire_digest,
    }
    record("E12", row)
    return row


def bench_e12_wire_overhead(benchmark):
    row = benchmark.pedantic(run_e12, rounds=1, iterations=1)
    assert row["digests_match"], row
    assert row["overhead"] <= OVERHEAD_LIMIT, row


def bench_e12_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    write_table("E12", "wire vs in-proc control path: wall clock and latency")
    assert rows("E12")


def main() -> int:
    row = run_e12()
    print(f"E12: {row['packet_ins']} packet-ins over the wire, "
          f"{row['per_exchange_us']} us/exchange, "
          f"overhead={row['overhead']}x (limit {OVERHEAD_LIMIT}x), "
          f"digests_match={row['digests_match']}")
    failures = []
    if not row["digests_match"]:
        failures.append("wire and in-proc run digests differ")
    if row["budget_misses"]:
        failures.append(f"{row['budget_misses']} latency-budget misses")
    if row["overhead"] > OVERHEAD_LIMIT:
        failures.append(
            f"wire control path {row['overhead']}x in-proc "
            f"> {OVERHEAD_LIMIT}x"
        )
    if failures:
        for failure in failures:
            print(f"E12 FAILED: {failure}", file=sys.stderr)
        return 1
    print("E12 wire gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
