"""E6 (ablation): design choices called out in DESIGN.md.

(a) Pending-event set: binary heap vs naive sorted list, on the push/pop
    mix a flow-churn workload produces.  Expected shape: the heap wins
    and the gap widens with queue size (O(log n) vs O(n) insert).
(b) Max-min re-solve: full solve (the test-side reference,
    ``tests/diff/reference.py``) vs the incremental connected-component
    solve, on spatially clustered traffic (disjoint clusters).  Expected
    shape: identical allocations (asserted), with the incremental solver
    touching only the changed cluster (scope << total flows).
"""

import random
import time

import pytest

from repro.flowsim import Flow, FlowLevelEngine
from repro.net.generators import single_switch
from repro.net.topology import Topology
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.sim import Event, HeapEventQueue, Simulator

from tests.diff.reference import SortedListEventQueue, solve_from_scratch

from .harness import record, rows, write_table


# ----------------------------------------------------------------------
# (a) Event queue implementations
# ----------------------------------------------------------------------

def _churn(queue, size, seed=5):
    """Random interleaved push/pop mix, like flow arrivals/completions."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(size):
        queue.push(Event(rng.random() * 1000.0))
    for _ in range(size * 4):
        if rng.random() < 0.5 and len(queue):
            queue.pop()
        else:
            queue.push(Event(rng.random() * 1000.0))
    while len(queue):
        queue.pop()
    return time.perf_counter() - start


@pytest.mark.parametrize("size", [1000, 10000, 30000])
@pytest.mark.parametrize("impl", ["heap", "sorted-list"])
def bench_e6_event_queue(benchmark, impl, size):
    queue_cls = HeapEventQueue if impl == "heap" else SortedListEventQueue
    elapsed = benchmark.pedantic(
        _churn, args=(queue_cls(), size), rounds=1, iterations=1
    )
    record(
        "E6a",
        {"impl": impl, "size": size, "seconds": round(elapsed, 4)},
    )


def bench_e6_queue_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_key = {(r["impl"], r["size"]): r["seconds"] for r in rows("E6a")}
    # The heap wins at the largest size (the production regime).
    assert by_key[("heap", 30000)] < by_key[("sorted-list", 30000)]
    write_table("E6a", "event queue ablation: heap vs sorted list")


# ----------------------------------------------------------------------
# (b) Incremental vs full max-min re-solve
# ----------------------------------------------------------------------

def _clustered_topology(clusters=6, hosts_per_cluster=6):
    """Disjoint star clusters inside one topology: traffic never crosses
    clusters, the best case for component-scoped re-solving."""
    topo = Topology(name="clusters")
    groups = []
    for c in range(clusters):
        switch = topo.add_switch(f"s{c + 1}")
        attach_pipeline(switch)
        hosts = []
        for h in range(hosts_per_cluster):
            host = topo.add_host(f"c{c}h{h + 1}")
            topo.add_link(host, switch, capacity_bps=100e6)
            hosts.append(host)
        groups.append(hosts)
    return topo, groups


def _cluster_flows(topo, groups, per_cluster=40, seed=3):
    rng = random.Random(seed)
    flows = []
    for hosts in groups:
        for i in range(per_cluster):
            src, dst = rng.sample(hosts, 2)
            flows.append(
                Flow(
                    headers=tcp_flow(src.ip, dst.ip, 2000 + i, 80),
                    src=src.name,
                    dst=dst.name,
                    demand_bps=50e6,
                    size_bytes=rng.randint(500_000, 4_000_000),
                    start_time=rng.random() * 2.0,
                )
            )
    return flows


def _install_star_rules(topo, groups):
    for c, hosts in enumerate(groups):
        switch = topo.switch(f"s{c + 1}")
        for host in hosts:
            port = topo.egress_port(switch.name, host.name)
            switch.pipeline.install(
                Match(ip_dst=host.ip),
                (ApplyActions((Output(port.number),)),),
                priority=10,
            )


def _run_solver(incremental: bool):
    topo, groups = _clustered_topology()
    _install_star_rules(topo, groups)
    flows = _cluster_flows(topo, groups)
    sim = Simulator()
    engine = FlowLevelEngine(sim, topo)
    if not incremental:
        solve_from_scratch(engine)
    for f in flows:
        engine.submit(f)
    start = time.perf_counter()
    sim.run(until=120.0)
    engine.finish()
    elapsed = time.perf_counter() - start
    # Positional (flow ids are globally unique across runs).
    fcts = [round(f.end_time or -1.0, 4) for f in flows]
    scope = engine.last_solve_scope if incremental else len(flows)
    return elapsed, fcts, engine.stats["rate_solves"], scope


@pytest.mark.parametrize("mode", ["full", "incremental"])
def bench_e6_solver(benchmark, mode):
    elapsed, fcts, solves, scope = benchmark.pedantic(
        _run_solver, args=(mode == "incremental",), rounds=1, iterations=1
    )
    record(
        "E6b",
        {
            "solver": mode,
            "flows": len(fcts),
            "rate_solves": solves,
            "last_scope": scope,
            "seconds": round(elapsed, 4),
        },
    )
    # Stash completion times for the parity check.
    record("E6b-fcts", {"solver": mode, "fcts": fcts})


def bench_e6_solver_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fcts = {r["solver"]: r["fcts"] for r in rows("E6b-fcts")}
    # Identical dynamics regardless of solver (exactness of the
    # component decomposition).
    assert fcts["full"] == fcts["incremental"]
    by_mode = {r["solver"]: r for r in rows("E6b")}
    # The incremental solver only touched one cluster on the last event.
    assert (
        by_mode["incremental"]["last_scope"]
        < by_mode["incremental"]["flows"] / 2
    )
    write_table("E6b", "solver ablation: full vs incremental re-solve")
