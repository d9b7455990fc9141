"""Differential gate for the hybrid flow/packet co-simulation engine.

Three contracts, each against a reference engine run on the identical
workload (same flow ids, same headers, same topology):

* **Empty foreground is pure flowsim, bitwise.**  ``select="none"``
  must schedule zero extra events, so event counts, end times, byte
  counters, and solved rates are exactly those of
  ``engine="incremental"`` flowsim — not approximately: ``==`` on
  unrounded floats.
* **All-foreground is pure pktsim in packet dynamics.**  With no
  background flows the fair-share load on every link is zero, the
  residual capacity equals the configured capacity exactly, and every
  packet serializes in the same time as under pure pktsim.  Event
  counts differ (the sync ticker fires), so the comparison is per-flow
  outcomes, which must be bitwise equal.
* **Mixed mode tracks pktsim where it matters.**  On the capped
  E3-style star-crossload scenario, foreground FCTs land within 10% of
  the pure packet-level run while processing several times fewer
  events.  (The wall-clock half of that claim is gated in
  ``benchmarks/bench_e11_hybrid.py``.)
"""

from repro import Horse, HorseConfig
from repro.net.generators import single_switch
from repro.runtime.scenario import reset_id_counters

from workloads import make_flow

FORWARDING = {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}}


def _crossload_flows(topo):
    """CBR cross-traffic plus two elastic high-demand flows (the
    foreground candidates: ``top:2`` ranks by demand)."""
    return [
        make_flow(topo, "h1", "h2", 4e6, duration=8.0, sport=2000, elastic=False),
        make_flow(topo, "h3", "h2", 3e6, duration=8.0, sport=2001, elastic=False),
        make_flow(topo, "h4", "h1", 2e6, duration=8.0, sport=2002, elastic=False),
        make_flow(topo, "h3", "h4", 8e6, size=1_000_000, sport=1000),
        make_flow(topo, "h2", "h3", 8e6, size=500_000, sport=1001, start=0.5),
    ]


def _run(engine, flow_builder, **config_kw):
    reset_id_counters()
    topo = single_switch(4, capacity_bps=10e6)
    horse = Horse(
        topo,
        policies=FORWARDING,
        config=HorseConfig(engine=engine, **config_kw),
    )
    flows = flow_builder(topo)
    horse.submit_flows(flows)
    result = horse.run(until=40.0)
    return horse, result, flows


def _flow_fingerprint(flows):
    """Unrounded per-flow outcomes — equality here is bitwise."""
    return [
        (
            f.flow_id,
            f.state.name,
            f.start_time,
            f.end_time,
            f.bytes_sent,
            f.bytes_delivered,
            f.bytes_dropped,
            f.rate_bps,
        )
        for f in sorted(flows, key=lambda f: f.flow_id)
    ]


class TestEmptyForeground:
    def test_bitwise_identical_to_incremental_flowsim(self):
        ref_horse, ref_result, ref_flows = _run(
            "flow", _crossload_flows, solver="incremental"
        )
        hy_horse, hy_result, hy_flows = _run(
            "hybrid", _crossload_flows, hybrid={"select": "none"}
        )
        # Event-for-event: the lazily scheduled sync ticker must never
        # have been created.
        assert hy_result.events == ref_result.events
        assert hy_result.sim_time_s == ref_result.sim_time_s
        assert hy_result.rule_count == ref_result.rule_count
        assert _flow_fingerprint(hy_flows) == _flow_fingerprint(ref_flows)
        assert hy_horse.engine.stats["syncs"] == 0
        assert hy_horse.engine.stats["foreground_flows"] == 0
        # Everything ran in the fluid background.
        assert len(hy_horse.engine.background.flows) == len(ref_flows)
        assert len(hy_horse.engine.foreground.flows) == 0

    def test_empty_foreground_summary_matches_flowsim_bytes(self):
        _, ref_result, _ = _run("flow", _crossload_flows, solver="incremental")
        _, hy_result, _ = _run("hybrid", _crossload_flows, hybrid={"select": "none"})
        for key in ("bytes_sent", "bytes_delivered", "total_flows"):
            assert hy_result.engine_summary[key] == ref_result.engine_summary[key]


class TestAllForeground:
    def test_packet_dynamics_identical_to_pure_pktsim(self):
        ref_horse, ref_result, ref_flows = _run("packet", _crossload_flows)
        hy_horse, hy_result, hy_flows = _run(
            "hybrid", _crossload_flows, hybrid={"select": "all"}
        )
        # With zero background flows the residual capacity equals the
        # configured capacity exactly, so per-flow packet dynamics are
        # bitwise those of pure pktsim.  (Total event counts differ:
        # the sync ticker fires in the hybrid run.)
        assert _flow_fingerprint(hy_flows) == _flow_fingerprint(ref_flows)
        assert hy_horse.engine.stats["foreground_flows"] == len(ref_flows)
        assert len(hy_horse.engine.background.flows) == 0
        fg_stats = hy_horse.engine.foreground.stats
        assert fg_stats["packets_delivered"] == ref_horse.engine.stats[
            "packets_delivered"
        ]
        assert fg_stats["drops_congestion"] == ref_horse.engine.stats[
            "drops_congestion"
        ]


class TestMixedMode:
    def test_foreground_fcts_within_tolerance_of_pktsim(self):
        """The acceptance gate: top-2-by-demand foreground on the
        E3-style crossload lands within 10% of pure pktsim FCTs while
        processing several times fewer events."""
        _, ref_result, ref_flows = _run("packet", _crossload_flows)
        hy_horse, hy_result, hy_flows = _run(
            "hybrid", _crossload_flows, hybrid={"select": "top:2"}
        )
        foreground_ids = set(hy_horse.engine._fg)
        assert len(foreground_ids) == 2
        compared = 0
        for ref, hyb in zip(ref_flows, hy_flows):
            assert ref.flow_id == hyb.flow_id
            if hyb.flow_id not in foreground_ids:
                continue
            ref_fct = ref.flow_completion_time
            hyb_fct = hyb.flow_completion_time
            assert ref_fct is not None and hyb_fct is not None
            assert abs(hyb_fct - ref_fct) / ref_fct < 0.10, (
                f"flow {ref.flow_id}: hybrid FCT {hyb_fct} vs pktsim {ref_fct}"
            )
            compared += 1
        assert compared == 2
        # The speed claim, in its deterministic form: far fewer events.
        assert hy_result.events < ref_result.events / 2

    def test_pinned_foreground_load_reaches_background_solver(self):
        """Coupling direction two: an inelastic foreground flow's rate
        is pinned in the fair-share solve, so a background elastic flow
        sharing its bottleneck is held to the leftover bandwidth."""

        def flows(topo):
            return [
                # CBR foreground at 6 Mbps through h2's access link.
                make_flow(topo, "h1", "h2", 6e6, duration=10.0,
                          sport=1000, elastic=False),
                # Elastic background wanting the full 10 Mbps of the
                # same downlink.
                make_flow(topo, "h3", "h2", 10e6, duration=10.0, sport=2000),
            ]

        hy_horse, _, hy_flows = _run(
            "hybrid", flows, hybrid={"select": "match:tp_src=1000"}
        )
        background_flow = hy_flows[1]
        # Without the coupling the background flow would solve to the
        # full 10 Mbps; with 6 Mbps pinned it must stay near 4 Mbps.
        assert background_flow.rate_bps < 5e6
        assert hy_horse.engine.stats["syncs"] > 0
        assert hy_horse.engine.stats["external_updates"] > 0
