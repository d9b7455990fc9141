"""Metric names, units and definitions, and how they are computed.

``BENCHMARK.json`` lists the same names; ``test_selfcheck.py`` keeps the
two in step.  End-to-end metrics come from untraced repeats only;
per-layer metrics come from one traced repeat plus one untraced repeat
(for the tracing overhead and events per second).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional

from .tracer import SHARE_BUCKETS, TARGETS, UNATTRIBUTED

#: name -> (unit, better, bound as a share of the parent's median, definition)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25,
               "host seconds inside Horse.run(until=...): kernel loop plus "
               "result finalisation; fastest of the repeats"),
    "setup_s": ("s", "lower", 0.25,
                "host seconds from before `import repro` to just before "
                "Horse.run: import, topology build, policy compile and "
                "proactive rule install, traffic generation, submit_flows; "
                "fastest of the repeats"),
    "peak_rss_mb": ("MB", "lower", 0.10,
                    "child ru_maxrss when Horse.run returns; median of the repeats"),
    "flow_ok_share": ("ratio", "higher", 0.0001,
                      "1 - failed flows / counted flows over all repeats; a "
                      "repeat that raises, times out, breaks an invariant or "
                      "whose run_digest differs from the first repeat's counts "
                      "all its flows failed"),
    "fct_acc_hybrid": ("ratio", "higher", 0.015,
                       "packet_reference: 1 - mean relative FCT error of the "
                       "elastic flows, hybrid(top:K) vs pure packet engine; "
                       "1 (nothing measured) on the other workloads"),
    "goodput_acc_flow": ("ratio", "higher", 0.03,
                         "packet_reference: 1 - mean relative per-flow goodput "
                         "error, flow engine vs pure packet engine; 1 (nothing "
                         "measured) on the other workloads"),
}

#: name -> (unit, better, definition)
PER_LAYER = {
    "sim.events": ("count", "lower", "kernel events fired"),
    "sim.events_per_s": ("1/s", "higher", "events / untraced wall_s"),
    "sim.dispatch_share": ("ratio", "lower",
                           "self time of Simulator.run (pop, clock, dispatch) / root"),
    "sim.queue_ops": ("count", "lower", "schedule + reschedule + cancel calls in the run"),
    "sim.queue_share": ("ratio", "lower", "self time of schedule/reschedule/cancel / root"),
    "sim.reschedules": ("count", "lower", "Simulator.reschedule calls in the run"),
    "sim.compactions": ("count", "lower", "pending-set compactions"),
    "sim.peak_heap": ("count", "lower", "largest raw pending-set size"),
    "engine.share": ("ratio", "lower",
                     "self time of the FlowLevelEngine handlers and flow events / root"),
    "engine.arrivals": ("count", "lower", "flow arrivals handled"),
    "engine.completions": ("count", "lower", "flows completed or ended"),
    "engine.reroutes": ("count", "lower", "flows re-routed"),
    "engine.route_cache_hit_ratio": ("ratio", "higher", "route-cache hits / lookups"),
    "solve.share": ("ratio", "lower", "self time of IncrementalSolver.resolve / root"),
    "solve.resolves": ("count", "lower", "IncrementalSolver.resolve calls"),
    "solve.flows_per_resolve": ("count", "lower", "flows re-solved per resolve"),
    "solve.us_per_resolve": ("us", "lower", "traced microseconds per resolve"),
    "solve.index_ops": ("count", "lower", "IncrementalSolver upsert + remove calls"),
    "solve.index_share": ("ratio", "lower", "self time of upsert/remove / root"),
    "openflow.process_calls": ("count", "lower", "OpenFlowPipeline.process calls in the run"),
    "openflow.process_share": ("ratio", "lower", "self time of process / root"),
    "openflow.mods": ("count", "lower", "FlowTable.add + FlowTable.delete calls in the run"),
    "openflow.mod_share": ("ratio", "lower",
                           "self time of install/expire/add/delete / root"),
    "openflow.entries_peak": ("count", "lower",
                              "most entries one flow table held after an add, set-up included"),
    "control.share": ("ratio", "lower",
                      "self time of the ControlChannel entry points (apps included) / root"),
    "control.packet_ins": ("count", "lower", "packet-ins delivered to the controller"),
    "control.southbound_msgs": ("count", "lower", "flow-, group- and meter-mods sent"),
    "control.stats_polls": ("count", "lower", "stats requests + counter pushes"),
    "control.policy_compile_s": ("s", "lower",
                                 "Horse.start_control_plane: proactive rule install"),
    "stats.share": ("ratio", "lower",
                    "self time of sample_links/harvest_flows/monitor sampling / root"),
    "stats.samples": ("count", "lower", "link samples + monitor samples taken"),
    "pktsim.share": ("ratio", "lower",
                     "self time of PacketLevelEngine entry points and packet events / root"),
    "pktsim.packets": ("count", "lower", "packets injected"),
    "pktsim.drop_ratio": ("ratio", "lower", "packets dropped / packets injected"),
    "hybrid.wall_s": ("s", "lower", "check-phase hybrid(top:K) run, host seconds"),
    "hybrid.event_ratio": ("ratio", "higher", "packet-engine events / hybrid events"),
    "net.topology_build_s": ("s", "lower", "topology builder"),
    "traffic.generate_s": ("s", "lower", "traffic generator"),
    "core.construct_s": ("s", "lower", "Horse(...) plus start_control_plane"),
    "core.submit_s": ("s", "lower", "Horse.submit_flows"),
    "trace.overhead_ratio": ("ratio", "lower", "traced wall_s / untraced wall_s"),
    "trace.unattributed_share": ("ratio", "lower",
                                 "self time of callbacks no layer claims / root"),
}

#: per-layer share metric -> tracer bucket
SHARE_METRICS = {
    "sim.dispatch_share": "sim.dispatch",
    "sim.queue_share": "sim.queue",
    "engine.share": "engine",
    "solve.share": "solve",
    "solve.index_share": "solve.index",
    "openflow.process_share": "openflow.process",
    "openflow.mod_share": "openflow.mod",
    "control.share": "control",
    "stats.share": "stats",
    "pktsim.share": "pktsim",
    "trace.unattributed_share": UNATTRIBUTED,
}
assert set(SHARE_METRICS.values()) == set(SHARE_BUCKETS)


def valid(repeat: Optional[dict]) -> bool:
    return bool(repeat) and not repeat.get("error") and not repeat["violations"]


def end_to_end(repeats: List[dict]) -> Dict[str, Optional[float]]:
    """The six end-to-end values from a workload's untraced repeats."""
    good = [r for r in repeats if valid(r)]
    counted = sum(r.get("flows_counted", 0) for r in repeats)
    failed = sum(
        r["flows_failed"] if valid(r) else r.get("flows_counted", 0)
        for r in repeats
    )
    # Interference on a shared box only ever adds time, in bursts that
    # can cover most of a run's repeats: the fastest repeat is the
    # steadiest estimate of what the program itself costs (README,
    # "Steadiness").  Memory has no such bias and takes the median.
    out: Dict[str, Optional[float]] = {
        "wall_s": min(r["wall_s"] for r in good) if good else None,
        "setup_s": min(r["setup_s"] for r in good) if good else None,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in good) if good else None,
    }
    out["flow_ok_share"] = 1.0 - failed / counted if good and counted else 0.0
    for metric, error in (
        ("fct_acc_hybrid", "fct_err_hybrid"), ("goodput_acc_flow", "goodput_err_flow")
    ):
        measured = [r["extra"][error] for r in good if error in r["extra"]]
        out[metric] = 1.0 - measured[0] if measured else (1.0 if good else 0.0)
    return out


def per_layer(untraced: dict, traced: dict) -> Dict[str, Optional[float]]:
    """Per-layer values from one traced and one untraced repeat.

    A metric whose wrap target is missing is None (the traced repeat
    lists the target under ``missing_targets``).
    """
    trace = traced["trace"]
    names = trace["names"]
    root = trace["root_s"]
    missing = {t.split(":", 1)[1] for t in trace["missing_targets"]}

    def calls(*labels: str) -> Optional[int]:
        if any(label in missing for label in labels):
            return None
        return sum(names.get(label, {}).get("count", 0) for label in labels)

    stats = traced["engine_stats"]
    summary = traced["engine_summary"]
    solver = stats.get("solver", {})
    channel = traced["channel"]
    kernel = traced["kernel"]
    extra = traced["extra"]
    out: Dict[str, Optional[float]] = {}

    bucket_targets: Dict[str, List[str]] = {}
    for bucket, _module, cls, method in TARGETS:
        bucket_targets.setdefault(bucket, []).append(f"{cls}.{method}")
    for metric, bucket in SHARE_METRICS.items():
        wanted = bucket_targets.get(bucket, [])
        if not root or (wanted and all(label in missing for label in wanted)):
            out[metric] = None
        else:
            out[metric] = trace["buckets"].get(bucket, 0.0) / root

    out["sim.events"] = traced["events"]
    out["sim.events_per_s"] = untraced["events"] / untraced["wall_s"]
    out["sim.queue_ops"] = calls(
        "Simulator.schedule", "Simulator.reschedule", "Simulator.cancel"
    )
    out["sim.reschedules"] = calls("Simulator.reschedule")
    out["sim.compactions"] = kernel.get("queue_compactions", 0)
    out["sim.peak_heap"] = kernel.get("queue_peak_size", 0)

    # engine.* describe the flow-level engine; the packet engine's
    # summary shares some key names and must not leak into them.
    fluid = summary if stats.get("engine") == "flow" else {}
    out["engine.arrivals"] = fluid.get("arrivals", 0)
    out["engine.completions"] = fluid.get("completed", 0) + fluid.get("ended", 0)
    out["engine.reroutes"] = fluid.get("reroutes", 0)
    lookups = stats.get("route_cache_hits", 0) + stats.get("route_cache_misses", 0)
    out["engine.route_cache_hit_ratio"] = (
        stats.get("route_cache_hits", 0) / lookups if lookups else 0.0
    )

    resolves = solver.get("resolves", 0)
    out["solve.resolves"] = resolves
    out["solve.flows_per_resolve"] = (
        solver.get("flows_resolved", 0) / resolves if resolves else 0.0
    )
    resolve = names.get("IncrementalSolver.resolve", {})
    if "IncrementalSolver.resolve" in missing:
        out["solve.us_per_resolve"] = None
    else:
        out["solve.us_per_resolve"] = (
            resolve["total_s"] / resolve["count"] * 1e6 if resolve.get("count") else 0.0
        )
    out["solve.index_ops"] = calls("IncrementalSolver.upsert", "IncrementalSolver.remove")

    out["openflow.process_calls"] = calls("OpenFlowPipeline.process")
    out["openflow.mods"] = calls("FlowTable.add", "FlowTable.delete")
    out["openflow.entries_peak"] = (
        None if "FlowTable.add" in missing else trace["entries_peak"]
    )

    out["control.packet_ins"] = channel.get("packet_ins", 0)
    out["control.southbound_msgs"] = (
        channel.get("flow_mods", 0) + channel.get("group_mods", 0)
        + channel.get("meter_mods", 0)
    )
    out["control.stats_polls"] = (
        channel.get("stats_requests", 0) + channel.get("counter_pushes", 0)
    )
    out["control.policy_compile_s"] = (
        None if "Horse.start_control_plane" in missing
        else trace["outside"].get("Horse.start_control_plane", 0.0)
    )

    out["stats.samples"] = calls(
        "RunStatsCollector.sample_links", "NetworkMonitor.sample_now"
    )

    sent = summary.get("packets_sent", 0)
    drops = sum(v for k, v in summary.items() if k.startswith("drops_"))
    out["pktsim.packets"] = sent
    out["pktsim.drop_ratio"] = drops / sent if sent else 0.0
    out["hybrid.wall_s"] = extra.get("hybrid_wall_s", 0.0)
    out["hybrid.event_ratio"] = (
        traced["events"] / extra["hybrid_events"] if extra.get("hybrid_events") else 0.0
    )

    for phase in (
        "net.topology_build_s", "traffic.generate_s", "core.construct_s",
        "core.submit_s",
    ):
        out[phase] = untraced["phases"][phase]
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return out
