"""Differential tests at the engine level: the incremental re-solve vs
re-solving everything from scratch (:func:`.reference.solve_from_scratch`),
and the route cache vs a walk per flow (:func:`.reference.without_route_cache`).

The solver-level suite proves the index math is exact; this one proves
the *engine integration* is — demand caching, per-direction allocated
totals, link flips, and the routing cache must not make the production
path drift from the reference.  Every scenario is run both ways and the
complete per-flow dynamics fingerprint must match exactly (bitwise
rates, identical completion times and byte counts).
"""

import random

from repro import Horse, HorseConfig
from repro.flowsim import Flow
from repro.ixp import build_ixp
from repro.net.generators import fat_tree
from repro.openflow.headers import tcp_flow
from repro.sim.rng import RngRegistry
from repro.traffic import FlowGenConfig, IxpTraceSynthesizer

from .reference import solve_from_scratch, without_route_cache


def _fingerprint(flows, result, engine_stats):
    return {
        "events": result.events,
        # Positional: flow ids are process-global counters, so they
        # differ across runs even when the dynamics are identical.
        "flows": [
            (
                f.state.name if hasattr(f.state, "name") else str(f.state),
                f.end_time,          # exact, no rounding
                f.bytes_sent,
                f.bytes_delivered,
                f.rate_bps,          # bitwise
                tuple(d.key for d in f.route.directions) if f.route else (),
            )
            for f in flows
        ],
        "stats": {
            k: v
            for k, v in engine_stats.items()
            # The cache hit/miss split differs only against the
            # cacheless reference; keep it to catch drift.
            if k != "time_advanced_s"
        },
    }


def _run_ixp(from_scratch: bool, with_failure: bool = False):
    fabric = build_ixp(8, seed=17)
    synth = IxpTraceSynthesizer(
        fabric,
        peak_total_bps=1.5e9,
        flow_config=FlowGenConfig(mean_flow_bytes=400e3, min_demand_bps=10e6),
    )
    flows = synth.steady_flows(
        RngRegistry(17).stream("diff"), duration_s=1.0, load_fraction=0.6
    )
    horse = Horse(
        fabric.topology,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine="flow", seed=17),
    )
    if from_scratch:
        solve_from_scratch(horse.engine)
    horse.submit_flows(flows)
    if with_failure:
        switch_names = {s.name for s in fabric.topology.switches}
        link = next(
            l for l in fabric.topology.links
            if {l.endpoints[0].name, l.endpoints[1].name} <= switch_names
        )
        a, b = link.endpoints[0].name, link.endpoints[1].name
        horse.fail_link(0.3, a, b)
        horse.restore_link(0.7, a, b)
    result = horse.run(until=30.0)
    return _fingerprint(flows, result, horse.engine.stats)


def test_ixp_replay_identical_across_solvers():
    assert _run_ixp(False) == _run_ixp(True)


def test_ixp_replay_with_link_flap_identical_across_solvers():
    """Link failure + recovery mid-run: reroutes, route-cache epoch
    bumps, and capacity touches all hit the incremental index."""
    got = _run_ixp(False, with_failure=True)
    want = _run_ixp(True, with_failure=True)
    assert got == want


def _run_fat_tree(from_scratch: bool):
    topo = fat_tree(4)
    hosts = topo.hosts
    rng = random.Random(23)
    flows = []
    for i in range(120):
        src, dst = rng.sample(hosts, 2)
        flows.append(
            Flow(
                headers=tcp_flow(src.ip, dst.ip, 3000 + i, 80),
                src=src.name,
                dst=dst.name,
                demand_bps=rng.choice((20e6, 50e6, 200e6)),
                size_bytes=rng.randint(200_000, 3_000_000),
                start_time=round(rng.random() * 1.5, 6),
            )
        )
    horse = Horse(
        topo,
        policies={"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
        config=HorseConfig(engine="flow", seed=23),
    )
    if from_scratch:
        solve_from_scratch(horse.engine)
    horse.submit_flows(flows)
    result = horse.run(until=60.0)
    return _fingerprint(flows, result, horse.engine.stats)


def test_fat_tree_identical_across_solvers():
    """Shared-core topology: one big link-sharing component, plus many
    partial overlaps — the opposite regime from the disjoint pods."""
    assert _run_fat_tree(False) == _run_fat_tree(True)


def test_route_cache_off_matches_on():
    """The routing cache must be a pure memoization: a run whose every
    lookup misses differs in nothing but the hit counters."""

    def run(route_cache: bool):
        fabric = build_ixp(6, seed=9)
        synth = IxpTraceSynthesizer(fabric, peak_total_bps=800e6)
        flows = synth.steady_flows(
            RngRegistry(9).stream("rc"), duration_s=0.5
        )
        horse = Horse(
            fabric.topology,
            policies={
                "forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}
            },
            config=HorseConfig(engine="flow", seed=9),
        )
        if not route_cache:
            without_route_cache(horse.engine)
        horse.submit_flows(flows)
        result = horse.run(until=20.0)
        fp = _fingerprint(flows, result, horse.engine.stats)
        hits = fp["stats"].pop("route_cache_hits")
        fp["stats"].pop("route_cache_misses")
        return fp, hits

    fp_on, hits_on = run(True)
    fp_off, hits_off = run(False)
    assert fp_on == fp_off
    assert hits_off == 0
    assert hits_on > 0  # the cache actually engaged
