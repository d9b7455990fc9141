"""Shared helpers for the experiment benchmarks (E1–E7).

Each benchmark file records rows into a per-experiment table; the file's
final ``bench_*_report`` writes the table to ``benchmarks/results/`` and
asserts the *shape* the paper's evaluation plan predicts (who wins, by
roughly what factor).  Absolute numbers depend on the host machine and
are recorded, not asserted.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import Horse, HorseConfig, RunResult
from repro.flowsim import Flow
from repro.ixp import IxpFabric, build_ixp
from repro.net.topology import Topology
from repro.openflow import ApplyActions, Match, Output, attach_pipeline
from repro.openflow.headers import tcp_flow
from repro.sim.rng import RngRegistry
from repro.traffic import FlowGenConfig, IxpTraceSynthesizer

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Committed benchmark baseline (regression reference for bench-smoke).
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_e2.json")

#: exp id -> list of row dicts, accumulated across parametrized benches.
_TABLES: Dict[str, List[dict]] = defaultdict(list)


def record(exp_id: str, row: dict) -> None:
    """Append one result row for an experiment."""
    _TABLES[exp_id].append(dict(row))


def rows(exp_id: str) -> List[dict]:
    return list(_TABLES[exp_id])


def write_table(exp_id: str, title: str) -> str:
    """Render the experiment's rows as an aligned text table, write it to
    benchmarks/results/<exp>.txt, and return the rendering."""
    table_rows = _TABLES[exp_id]
    if not table_rows:
        return f"{exp_id}: no rows recorded"
    headers = list(table_rows[0].keys())
    widths = {
        h: max(len(h), *(len(_fmt(r.get(h, ""))) for r in table_rows))
        for h in headers
    }
    lines = [f"# {exp_id}: {title}", ""]
    lines.append("  ".join(h.ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in table_rows:
        lines.append(
            "  ".join(_fmt(row.get(h, "")).ljust(widths[h]) for h in headers)
        )
    text = "\n".join(lines) + "\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{exp_id}.txt"), "w") as f:
        f.write(text)
    print("\n" + text)
    return text


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------

#: Keep per-member offered load constant while scaling the fabric.
LOAD_PER_MEMBER_BPS = 400e6

#: Flow-size knobs sized so runs finish quickly but still produce
#: thousands of flow events at the larger scales.
BENCH_FLOW_CONFIG = FlowGenConfig(
    mean_flow_bytes=2e6, demand_factor=4.0, min_demand_bps=20e6
)


def ixp_workload(
    members: int,
    duration_s: float,
    seed: int = 42,
    load_fraction: float = 1.0,
    flow_config: Optional[FlowGenConfig] = None,
):
    """Build an IXP fabric plus a steady flow workload for it."""
    fabric = build_ixp(members, seed=seed)
    synth = IxpTraceSynthesizer(
        fabric,
        peak_total_bps=LOAD_PER_MEMBER_BPS * members,
        flow_config=flow_config or BENCH_FLOW_CONFIG,
    )
    rng = RngRegistry(seed).stream("bench-trace")
    flows = synth.steady_flows(rng, duration_s=duration_s,
                               load_fraction=load_fraction)
    return fabric, flows


def run_engine(
    fabric_or_topo,
    flows,
    engine: str,
    policies: Optional[dict] = None,
    until: Optional[float] = None,
    from_scratch: bool = False,
    config_overrides: Optional[dict] = None,
) -> RunResult:
    """Run one engine over a prepared workload and return the result.
    ``from_scratch`` puts the flow engine on the test-side reference
    that re-solves every component at every event."""
    topology = getattr(fabric_or_topo, "topology", fabric_or_topo)
    if policies is None:
        policies = {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}}
    config = HorseConfig(engine=engine, **(config_overrides or {}))
    horse = Horse(topology, policies=policies, config=config)
    if from_scratch:
        from tests.diff.reference import solve_from_scratch

        solve_from_scratch(horse.engine)
    horse.submit_flows(flows)
    return horse.run(until=until)


#: Timed runs per E1 / E2 point: one run on a shared box varied up to 3x.
REPEATS = 3


def median_run(build: Callable[[], tuple], engine: str, until: float):
    """Run the workload ``build()`` returns (``(fabric, flows)``, built
    afresh for every run: a run consumes its flows) ``REPEATS`` times on
    ``engine``.  Returns the last build, the last result and the median
    wall time; everything but the wall time is the same in every run."""
    walls = []
    for _ in range(REPEATS):
        fabric, flows = build()
        result = run_engine(fabric, flows, engine=engine, until=until)
        walls.append(result.wall_time_s)
    return fabric, flows, result, statistics.median(walls)


# ----------------------------------------------------------------------
# Pod workload: the incremental solver's target regime
# ----------------------------------------------------------------------

def pod_workload(
    pods: int = 40,
    hosts_per_pod: int = 8,
    flows_per_pod: int = 250,
    spread_s: float = 1.0,
    demand_bps: float = 40e6,
    capacity_bps: float = 1e9,
    seed: int = 7,
) -> Tuple[Topology, List[Flow]]:
    """Disjoint star pods carrying continuous flows.

    Traffic never crosses pods, so the network decomposes into many
    small link-sharing components — the regime where component-scoped
    re-solving pays off (each event re-solves one pod, a full solve
    re-solves them all).  With default parameters this yields
    ``pods * flows_per_pod`` (10k) concurrent flows once arrivals (spread
    over ``spread_s``) finish.  Rules are installed directly on the
    pipelines, so run with ``policies={}``.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"pods-{pods}x{hosts_per_pod}")
    groups = []
    for p in range(pods):
        switch = topo.add_switch(f"p{p}s")
        attach_pipeline(switch)
        hosts = []
        for h in range(hosts_per_pod):
            host = topo.add_host(f"p{p}h{h}")
            topo.add_link(host, switch, capacity_bps=capacity_bps)
            hosts.append(host)
        for host in hosts:
            port = topo.egress_port(switch.name, host.name)
            switch.pipeline.install(
                Match(ip_dst=host.ip),
                (ApplyActions((Output(port.number),)),),
                priority=10,
            )
        groups.append(hosts)
    flows = []
    for p, hosts in enumerate(groups):
        for i in range(flows_per_pod):
            src, dst = rng.sample(hosts, 2)
            flows.append(
                Flow(
                    headers=tcp_flow(src.ip, dst.ip, 1024 + i, 80),
                    src=src.name,
                    dst=dst.name,
                    demand_bps=demand_bps,
                    start_time=round(rng.random() * spread_s, 6),
                )
            )
    return topo, flows


def timed_solver_run(
    topo: Topology, flows: List[Flow], solver: str, until: float
) -> Tuple[float, List[float]]:
    """Run the flow engine over a prepared (rules-installed) workload
    and return (wall seconds, final per-flow rate vector in flow order).
    ``solver`` is ``"incremental"`` (the engine as shipped) or ``"full"``
    (the from-scratch reference)."""
    ordered = sorted(flows, key=lambda f: f.flow_id)
    start = time.perf_counter()
    run_engine(topo, flows, engine="flow", policies={}, until=until,
               from_scratch=solver == "full")
    wall = time.perf_counter() - start
    return wall, [f.rate_bps for f in ordered]


# ----------------------------------------------------------------------
# Benchmark baselines (BENCH_e2.json)
# ----------------------------------------------------------------------

def calibration_score(loops: int = 2_000_000) -> float:
    """A seconds-per-unit score of this machine's Python speed.

    Baselines divide wall times by this score, so the committed numbers
    transfer across machines: a 2x slower host scores 2x higher and its
    normalized times land near the baseline.
    """
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    elapsed = time.perf_counter() - start
    assert total >= 0
    return elapsed / 0.1  # ~0.1 s on the reference machine


def load_baseline() -> Optional[dict]:
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def update_baseline(entries: Dict[str, dict], score: float) -> dict:
    """Merge normalized benchmark entries into BENCH_e2.json."""
    doc = load_baseline() or {"description": (
        "Calibration-normalized benchmark baselines; refresh with "
        "`python -m benchmarks.smoke --update` (see docs/testing.md)."
    ), "entries": {}}
    doc["calibration_score"] = round(score, 4)
    doc["entries"].update(entries)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc
