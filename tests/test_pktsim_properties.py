"""Property tests for the pktsim invariants the hybrid engine leans on.

The hybrid coupler assumes three things about the packet substrate:

1. **Byte conservation through queues** — every byte a source injects
   is delivered or dropped (a packet lost in flight on a down link
   included); port and queue counters agree along every direction.
2. **FIFO per port** — an output queue never reorders packets, even
   under a time-varying transmit rate (exactly what the hybrid
   residual-capacity hook supplies).
3. **Residual capacity is never negative** — whatever fair-share load
   the background solver reports, the foreground transmit rate stays at
   or above the configured floor and at or below the link rate.

Each is checked under randomized workloads with hypothesis.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Horse, HorseConfig
from repro.hybrid.engine import RESIDUAL_FLOOR
from repro.net.generators import linear, single_switch
from repro.openflow import attach_pipeline
from repro.pktsim import Packet, PacketLevelEngine
from repro.pktsim.queues import OutputQueue
from repro.runtime.scenario import reset_id_counters
from repro.sim import Simulator

from conftest import install_ip_path
from workloads import make_flow

FORWARDING = {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}}

flow_spec_st = st.tuples(
    st.integers(min_value=0, max_value=3),            # src host index
    st.integers(min_value=0, max_value=3),            # dst host index
    st.floats(min_value=0.5e6, max_value=12e6),       # demand_bps
    st.integers(min_value=5_000, max_value=400_000),  # size_bytes
    st.floats(min_value=0.0, max_value=1.0),          # start_time
    st.booleans(),                                    # elastic
)


def _submit_specs(topo, engine_like, specs):
    hosts = sorted(h.name for h in topo.hosts)
    count = 0
    for i, (si, di, demand, size, start, elastic) in enumerate(specs):
        src, dst = hosts[si], hosts[di]
        if src == dst:
            continue
        engine_like.submit(
            make_flow(topo, src, dst, demand, size=size, start=start,
                      sport=1000 + i, elastic=elastic)
        )
        count += 1
    return count


class TestByteConservation:
    @given(specs=st.lists(flow_spec_st, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_bytes_conserved_through_queues(self, specs):
        reset_id_counters()
        topo = single_switch(4, capacity_bps=10e6)
        attach_pipeline(topo.switch("s1"), num_tables=2)
        hosts = sorted(h.name for h in topo.hosts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    install_ip_path(topo, src, dst)
        sim = Simulator()
        engine = PacketLevelEngine(
            sim, topo, config=HorseConfig(queue_capacity_packets=8)
        )
        if not _submit_specs(topo, engine, specs):
            return
        sim.run(until=30.0)

        # Queue/port agreement on every direction that carried traffic:
        # what the queue transmitted is what the source port sent, and
        # (links stayed up) what the far port received.
        for direction, queue in engine._queues.items():
            assert direction.src_port.tx_bytes == queue.transmitted_bytes
            assert direction.dst_port.rx_bytes == queue.transmitted_bytes

        # Flow-level conservation: nothing is created, everything a
        # source injected is accounted delivered, dropped, or in flight
        # (zero in flight after the horizon drains the queues).
        total_sent = sum(f.bytes_sent for f in engine.flows.values())
        total_delivered = sum(f.bytes_delivered for f in engine.flows.values())
        assert total_delivered <= total_sent
        if (
            engine.stats["drops_congestion"] == 0
            and engine.stats["drops_policy"] == 0
            and engine.stats["drops_no_route"] == 0
            and engine.stats["drops_loop"] == 0
            and engine.stats["drops_meter"] == 0
            and all(f.finished for f in engine.flows.values())
        ):
            for flow in engine.flows.values():
                assert flow.bytes_delivered == flow.bytes_sent


class TestFifoOrdering:
    @given(
        sizes=st.lists(
            st.integers(min_value=64, max_value=1500), min_size=1, max_size=40
        ),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=2e-3), min_size=40, max_size=40
        ),
        rate_steps=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_queue_never_reorders_even_under_varying_rate(
        self, sizes, gaps, rate_steps
    ):
        """Arrival order out of one OutputQueue equals accepted enqueue
        order, for any packet sizes, arrival times, and any (positive)
        time-varying capacity function — the hybrid residual hook."""
        topo = linear(2, hosts_per_switch=1, capacity_bps=10e6)
        port = topo.host("h1").uplink_port
        direction = port.link.direction_from(port)
        sim = Simulator()

        # Piecewise capacity: multiplier cycles as transmissions finish,
        # emulating background load changing between sync ticks.
        calls = {"n": 0}

        def residual(d):
            calls["n"] += 1
            return d.capacity_bps * rate_steps[calls["n"] % len(rate_steps)]

        arrived = []
        accepted = []
        queue = OutputQueue(
            sim,
            direction,
            capacity_packets=16,
            on_arrival=lambda packet, dst: arrived.append(packet.packet_id),
            on_drop=lambda packet, d: None,
            capacity_fn=residual,
        )

        h1, h2 = topo.host("h1"), topo.host("h2")
        headers = make_flow(topo, "h1", "h2", 1e6, size=1000).headers

        def _enqueue(sim_, packet):
            if queue.enqueue(packet):
                accepted.append(packet.packet_id)

        at = 0.0
        for i, size in enumerate(sizes):
            at += gaps[i % len(gaps)]
            packet = Packet(headers=headers, size_bytes=size, flow_id=1,
                            src="h1", dst="h2", sent_at=at)
            sim.call_at(at, _enqueue, packet)
        sim.run()

        assert arrived == accepted
        assert queue.depth == 0


class TestResidualCapacity:
    @given(
        specs=st.lists(flow_spec_st, min_size=1, max_size=6),
        top_k=st.integers(min_value=0, max_value=3),
        horizon=st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_residual_never_negative_never_above_capacity(
        self, specs, top_k, horizon
    ):
        """At any instant of a randomized hybrid run, every direction's
        residual capacity sits in [floor * capacity, capacity]."""
        reset_id_counters()
        topo = single_switch(4, capacity_bps=10e6)
        horse = Horse(
            topo,
            policies=FORWARDING,
            config=HorseConfig(engine="hybrid", hybrid={"select": f"top:{top_k}"}),
        )
        if not _submit_specs(topo, horse.engine, specs):
            return
        horse.run(until=horizon)
        engine = horse.engine
        for direction in topo.directions():
            residual = engine._residual_capacity(direction)
            capacity = direction.capacity_bps
            floor = capacity * RESIDUAL_FLOOR
            assert residual >= floor or math.isclose(residual, floor)
            assert residual <= capacity or math.isclose(residual, capacity)
            assert engine.background.background_load(direction) >= 0.0
