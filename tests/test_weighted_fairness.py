"""Weighted max-min fairness tests: solvers and engine integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim import Flow, FlowLevelEngine
from repro.flowsim.fairshare import FlowDemand

from diff.reference import as_arrays, solve, solve_arrays, solve_scalar
from repro.openflow.headers import tcp_flow
from repro.sim import Simulator


class TestWeightedSolver:
    def test_weights_split_a_link_proportionally(self):
        flows = [
            FlowDemand("gold", 100, ["l"], weight=3.0),
            FlowDemand("bronze", 100, ["l"], weight=1.0),
        ]
        alloc = solve(flows, {"l": 12})
        assert alloc["gold"] == pytest.approx(9.0)
        assert alloc["bronze"] == pytest.approx(3.0)

    def test_demand_limited_heavy_flow_releases_share(self):
        flows = [
            FlowDemand("gold", 4, ["l"], weight=3.0),  # wants little
            FlowDemand("bronze", 100, ["l"], weight=1.0),
        ]
        alloc = solve(flows, {"l": 12})
        assert alloc["gold"] == pytest.approx(4.0)
        assert alloc["bronze"] == pytest.approx(8.0)

    def test_equal_weights_reduce_to_plain_max_min(self):
        weighted = solve(
            [
                FlowDemand("a", 100, ["l"], weight=2.0),
                FlowDemand("b", 100, ["l"], weight=2.0),
            ],
            {"l": 10},
        )
        assert weighted["a"] == pytest.approx(5.0)
        assert weighted["b"] == pytest.approx(5.0)

    def test_weights_across_multiple_bottlenecks(self):
        # gold and bronze share l1; bronze alone on l2 (tighter).
        flows = [
            FlowDemand("gold", 100, ["l1"], weight=2.0),
            FlowDemand("bronze", 100, ["l1", "l2"], weight=1.0),
        ]
        alloc = solve(flows, {"l1": 30, "l2": 5})
        assert alloc["bronze"] == pytest.approx(5.0)  # l2 binds first
        assert alloc["gold"] == pytest.approx(25.0)  # takes the rest of l1

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            FlowDemand("x", 1, [], weight=0)

    def test_vectorized_weighted_parity_simple(self):
        demand = np.array([100.0, 100.0])
        capacity = np.array([12.0])
        flow_of = np.array([0, 1], dtype=np.intp)
        link_of = np.array([0, 0], dtype=np.intp)
        alloc = solve_arrays(
            demand, capacity, flow_of, link_of, weight=np.array([3.0, 1.0])
        )
        assert alloc[0] == pytest.approx(9.0)
        assert alloc[1] == pytest.approx(3.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_weighted_scalar_vector_parity(seed):
    import random

    rng = random.Random(seed)
    num_links = rng.randint(1, 8)
    num_flows = rng.randint(1, 25)
    caps = {f"l{i}": rng.uniform(1.0, 500.0) for i in range(num_links)}
    flows = []
    for i in range(num_flows):
        links = rng.sample(sorted(caps), rng.randint(0, min(4, num_links)))
        flows.append(
            FlowDemand(
                i,
                rng.uniform(0.1, 300.0),
                links,
                weight=rng.choice([0.5, 1.0, 2.0, 4.0]),
            )
        )
    ref = solve_scalar(flows, caps)
    assert solve(flows, caps) == pytest.approx(ref, rel=1e-9, abs=1e-9)
    vec = solve_arrays(**as_arrays(flows, caps))
    for i, flow in enumerate(flows):
        if flow.links:  # a linkless flow is free_rate's (0), never the kernel's
            assert vec[i] == pytest.approx(ref[flow.flow_id], rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_weighted_feasibility(seed):
    import random

    rng = random.Random(seed)
    caps = {f"l{i}": rng.uniform(1.0, 100.0) for i in range(rng.randint(1, 6))}
    flows = [
        FlowDemand(
            i,
            rng.uniform(0.1, 200.0),
            rng.sample(sorted(caps), rng.randint(0, len(caps))),
            weight=rng.uniform(0.1, 8.0),
        )
        for i in range(rng.randint(1, 20))
    ]
    alloc = solve(flows, caps)
    for flow in flows:
        assert -1e-9 <= alloc[flow.flow_id] <= flow.demand_bps + 1e-6
    for link, cap in caps.items():
        used = sum(alloc[f.flow_id] for f in flows if link in f.links)
        assert used <= cap * (1 + 1e-6) + 1e-6


class TestEngineWeights:
    def test_weighted_flows_share_bottleneck_by_weight(self, line2, install_path):
        install_path(line2, "h1", "h2")
        sim = Simulator()
        engine = FlowLevelEngine(sim, line2)
        h1, h2 = line2.host("h1"), line2.host("h2")
        gold = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1000, 80),
            src="h1", dst="h2", demand_bps=100e6, duration_s=4.0, weight=4.0,
        )
        bronze = Flow(
            headers=tcp_flow(h1.ip, h2.ip, 1001, 80),
            src="h1", dst="h2", demand_bps=100e6, duration_s=4.0, weight=1.0,
        )
        for f in [gold, bronze]:
            engine.submit(f)
        sim.run(until=2.0)
        # 10 Mb/s link split 8/2.
        assert gold.rate_bps == pytest.approx(8e6)
        assert bronze.rate_bps == pytest.approx(2e6)

    def test_vectorized_path_respects_weights(self, star4):
        """Sixty weighted flows through the engine on one bottleneck."""
        sim = Simulator()
        from repro.openflow import ApplyActions, Match, Output

        # Everyone sends to h2; install direct rule on s1.
        dst = star4.host("h2")
        out = star4.egress_port("s1", "h2")
        star4.switch("s1").pipeline.install(
            Match(ip_dst=dst.ip),
            (ApplyActions((Output(out.number),)),),
            priority=10,
        )
        engine = FlowLevelEngine(sim, star4)
        flows = []
        for i in range(60):
            src = star4.host("h1" if i % 2 else "h3")
            weight = 3.0 if i < 30 else 1.0
            flows.append(
                Flow(
                    headers=tcp_flow(src.ip, dst.ip, 2000 + i, 80),
                    src=src.name, dst="h2", demand_bps=100e6,
                    duration_s=3.0, weight=weight,
                )
            )
        for f in flows:
            engine.submit(f)
        sim.run(until=1.0)
        heavy = [f.rate_bps for f in flows[:30]]
        light = [f.rate_bps for f in flows[30:]]
        # The h2 access link is the shared bottleneck: 3x the share.
        assert sum(heavy) / sum(light) == pytest.approx(3.0, rel=0.01)

    @pytest.mark.parametrize("weight", [0.0, float("nan")])
    def test_flow_weight_validated(self, line2, weight):
        h1, h2 = line2.host("h1"), line2.host("h2")
        with pytest.raises(ValueError):
            Flow(
                headers=tcp_flow(h1.ip, h2.ip, 1, 2),
                src="h1", dst="h2", demand_bps=1e6, size_bytes=10,
                weight=weight,
            )
