"""Differential test: the one-event output queue vs the two-event one.

``repro.pktsim.queues.OutputQueue`` schedules a packet's arrival when
its transmission starts, and one start event for the packets that must
wait; ``reference.TwoEventOutputQueue`` spends a transmission-end event
and an arrival event on every packet.  On a link that stays up the two
must be the same queue: hypothesis draws packet sizes, enqueue gaps
(zero, arbitrary, and exactly the previous packet's transmission time,
so an enqueue lands on the instant the transmitter frees), a queue depth
of 1-8 and a transmit rate that steps with simulated time, and requires
bitwise the same arrivals ``(time, packet id, accumulated delay, hops)``,
the same drops, the same queue and port counters, the same rate samples,
and the same ``utilization`` at every enqueue and arrival.

The packets come from one paced source that schedules each packet when
it sends the one before, as the engines' transports and upstream queues
do.  An enqueue at the instant the transmitter frees then finds it idle
in both queues.  The two differ only when an enqueue at that instant was
scheduled before the transmission began.  The two-event queue then
holds the packet in its FIFO until its transmission-end event fires,
and a second packet offered at that same instant can find the FIFO full.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.generators import linear
from repro.openflow import HeaderFields
from repro.pktsim import Packet
from repro.pktsim.queues import OutputQueue
from repro.sim import Simulator

from .reference import TwoEventOutputQueue

CAPACITY_BPS = 10e6
#: How long the transmit rate holds each of its steps.
STEP_S = 1e-3

#: An enqueue gap: seconds, or ("tx", j), the previous packet's
#: transmission time at the j-th rate step.
gap_st = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3e-3),
    st.tuples(st.just("tx"), st.integers(min_value=0, max_value=7)),
)


def _run(queue_cls, sizes, gaps, depth, steps, delay_s):
    topo = linear(2, hosts_per_switch=1, capacity_bps=CAPACITY_BPS, delay_s=delay_s)
    port = topo.host("h1").uplink_port
    direction = port.link.direction_from(port)
    sim = Simulator()
    samples = []

    def rate(d):
        samples.append(sim.now)
        return d.capacity_bps * steps[int(sim.now / STEP_S) % len(steps)]

    arrivals, drops, utilization = [], [], []

    def on_arrival(packet, dst_port):
        arrivals.append(
            (sim.now, packet.packet_id, packet.accumulated_delay, packet.hops)
        )
        utilization.append(queue.utilization(sim.now))

    queue = queue_cls(
        sim,
        direction,
        capacity_packets=depth,
        on_arrival=on_arrival,
        on_drop=lambda packet, d: drops.append(packet.packet_id),
        capacity_fn=rate,
    )

    def send(sim_, i):
        # A paced source, as every packet source of the engines is: it
        # offers packet i, then schedules the next one a gap later.
        utilization.append(queue.utilization(sim.now))
        queue.enqueue(Packet(headers=HeaderFields(), size_bytes=sizes[i],
                             flow_id=1, src="h1", dst="h2", packet_id=i + 1))
        if i + 1 < len(sizes):
            gap = gaps[i + 1]
            if isinstance(gap, tuple):
                gap = sizes[i] * 8.0 / (CAPACITY_BPS * steps[gap[1] % len(steps)])
            sim.call_in(gap, send, i + 1)

    sim.call_at(gaps[0] if isinstance(gaps[0], float) else 0.0, send, 0)
    sim.run()
    src, dst = direction.src_port, direction.dst_port
    return {
        "arrivals": arrivals,
        "drops": drops,
        "utilization": utilization,
        "rate_samples": samples,
        "end": sim.now,
        "final_utilization": queue.utilization(sim.now + 1.0, since=0.5),
        "queue": (queue.enqueued, queue.dropped, queue.transmitted_bytes,
                  queue.busy_time, queue.depth),
        "ports": (src.tx_packets, src.tx_bytes, src.tx_dropped,
                  dst.rx_packets, dst.rx_bytes),
    }


@given(
    sizes=st.lists(st.integers(min_value=64, max_value=1500), min_size=1, max_size=30),
    gaps=st.lists(gap_st, min_size=30, max_size=30),
    depth=st.integers(min_value=1, max_value=8),
    steps=st.lists(st.sampled_from([0.05, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    delay_s=st.sampled_from([0.0, 10e-6, 1e-3]),
)
@settings(max_examples=200, deadline=None)
# Every packet enqueued exactly when its predecessor's transmission ends.
@example(sizes=[1500, 1000, 64, 1500], gaps=[0.0] + [("tx", 0)] * 29,
         depth=1, steps=[1.0], delay_s=10e-6)
# A burst onto a depth-1 queue, then an enqueue on a freeing instant.
@example(sizes=[1500] * 5, gaps=[0.0] * 4 + [("tx", 0)] * 26,
         depth=1, steps=[0.5, 1.0], delay_s=0.0)
def test_one_event_queue_matches_the_two_event_queue(sizes, gaps, depth, steps, delay_s):
    reference = _run(TwoEventOutputQueue, sizes, gaps, depth, steps, delay_s)
    assert reference["arrivals"] or reference["drops"]
    assert _run(OutputQueue, sizes, gaps, depth, steps, delay_s) == reference


def _two_queues(queue_cls):
    """Two queues whose transmitters free at one instant, each with a
    waiter enqueued after the other's transmission began."""
    topo = linear(2, hosts_per_switch=1, capacity_bps=CAPACITY_BPS, delay_s=10e-6)
    sim = Simulator()
    arrivals = []
    queues = {}
    for host in ("h1", "h2"):
        port = topo.host(host).uplink_port
        queues[host] = queue_cls(
            sim,
            port.link.direction_from(port),
            capacity_packets=4,
            on_arrival=lambda packet, dst_port: arrivals.append((sim.now, packet.packet_id)),
            on_drop=lambda packet, d: None,
        )

    def offer(sim_, host, packet_id):
        queues[host].enqueue(Packet(headers=HeaderFields(), size_bytes=1000, flow_id=1,
                                    src=host, dst="h1", packet_id=packet_id))

    # h1 starts first and h2 second, both free at 0.8 ms; h2's waiter
    # is offered before h1's.
    sim.call_at(0.0, offer, "h1", 1)
    sim.call_at(0.0, offer, "h2", 2)
    sim.call_at(1e-4, offer, "h2", 4)
    sim.call_at(2e-4, offer, "h1", 3)
    sim.run()
    return arrivals


def test_two_queues_free_at_one_instant_start_in_transmission_order():
    """The queue whose transmission began first starts its waiter first,
    whichever waiter was offered first, as its transmission-end event
    would: the waiters' arrivals tie and keep that order."""
    reference = _two_queues(TwoEventOutputQueue)
    assert [packet_id for _, packet_id in reference] == [1, 2, 3, 4]
    assert reference[2][0] == reference[3][0]
    assert _two_queues(OutputQueue) == reference
