"""Differential test: the one-event output queue vs the two-event one.

``repro.pktsim.queues.OutputQueue`` spends one event per packet, its
arrival; ``reference.TwoEventOutputQueue`` spends a transmission-end
event and an arrival event on every packet.  On a link that stays up the
two must be the same queue: hypothesis draws packet sizes, enqueue gaps
(zero, arbitrary, and exactly the previous packet's transmission time,
so an enqueue lands on the instant the transmitter frees), a queue depth
of 1-8 and a transmit rate that steps with simulated time, and requires
bitwise the same arrivals ``(time, packet id, accumulated delay, hops)``,
the same drops, the same queue and port counters, the same rate samples,
and the same ``utilization`` at every enqueue and arrival.  At a
constant rate (no ``capacity_fn``) the queue schedules each arrival when
it accepts the packet, and the same draws must hold there too.

The packets come from one paced source that schedules each packet when
it sends the one before, as the engines' transports and upstream queues
do.  An enqueue at the instant the transmitter frees then finds it idle
in both queues.  The two differ only at same-instant ties, where the
reference decides by event order and the one-event queue by rule:
- an enqueue at that instant that was scheduled before the transmission
  began fires before the reference's transmission-end event, so the
  reference still holds its head packet and a second packet offered then
  can find its FIFO full; at a constant rate a packet whose transmission
  starts at or before ``now`` has left the FIFO;
- arrivals from two queues at one instant fire in the order their
  transmissions began in the reference, and in the order their packets
  were accepted at a constant rate: the arrival is scheduled then, and
  the transmission's start is not an event.
"""

from hypothesis import assume, example, given, settings
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


def _run(queue_cls, sizes, gaps, depth, steps, delay_s, constant_rate=False):
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
        capacity_fn=None if constant_rate else rate,
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


def _logging_reference(log):
    """The reference queue, logging ``(kind, instant)`` as packets are
    offered and as their transmissions end."""

    class Reference(TwoEventOutputQueue):
        def enqueue(self, packet):
            log.append(("offer", self.sim.now))
            return super().enqueue(packet)

        def _on_tx_done(self, sim, packet, tx_time):
            log.append(("end", sim.now))
            super()._on_tx_done(sim, packet, tx_time)

    return Reference


@given(
    sizes=st.lists(st.integers(min_value=64, max_value=1500), min_size=1, max_size=30),
    gaps=st.lists(gap_st, min_size=30, max_size=30),
    depth=st.integers(min_value=1, max_value=8),
    steps=st.lists(st.sampled_from([0.05, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    delay_s=st.sampled_from([0.0, 10e-6, 1e-3]),
)
@settings(max_examples=200, deadline=None)
@example(sizes=[1500, 1000, 64, 1500], gaps=[0.0] + [("tx", 0)] * 29,
         depth=1, steps=[1.0], delay_s=10e-6)
@example(sizes=[1500] * 5, gaps=[0.0] * 4 + [("tx", 0)] * 26,
         depth=1, steps=[0.5, 1.0], delay_s=0.0)
def test_formula_queue_matches_the_two_event_queue_at_a_constant_rate(
    sizes, gaps, depth, steps, delay_s
):
    """Without ``capacity_fn`` the queue schedules each arrival when it
    accepts the packet (``steps`` then only shapes the gaps).  It must
    be the reference queue, except where the reference saw a packet
    offered at the instant a transmission ends before that end's event
    fired: the reference then still counts the ending packet's successor
    as queued and its transmitter as busy, while the formula's rule is
    that a packet whose start is at or before ``now`` has left the FIFO,
    so the two may differ in a drop or in how the busy time is summed.
    Only the draws where such a tie made them differ are excluded."""
    log = []
    reference = _run(_logging_reference(log), sizes, gaps, depth, steps, delay_s,
                     constant_rate=True)
    assert reference["arrivals"] or reference["drops"]
    assert reference["rate_samples"] == []
    formula = _run(OutputQueue, sizes, gaps, depth, steps, delay_s, constant_rate=True)
    tied = any(
        kind == "offer" and ("end", instant) in log[i + 1:]
        for i, (kind, instant) in enumerate(log)
    )
    assume(formula == reference or not tied)
    assert formula == reference


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


def test_two_queues_free_at_one_instant_arrive_in_enqueue_order():
    """The waiters' arrivals tie.  The reference starts first the waiter
    of the queue whose transmission began first, so its transmission-end
    event orders them [3, 4].  The one-event queue schedules an arrival
    when it accepts the packet (a start instant is not an event, so it
    has no sequence number to order by), so they fire in the order they
    were accepted: h2's waiter was offered at 0.1 ms, h1's at 0.2 ms."""
    reference = _two_queues(TwoEventOutputQueue)
    assert [packet_id for _, packet_id in reference] == [1, 2, 3, 4]
    assert reference[2][0] == reference[3][0]
    formula = _two_queues(OutputQueue)
    assert [packet_id for _, packet_id in formula] == [1, 2, 4, 3]
    assert formula[2][0] == formula[3][0] == reference[2][0]
    assert sorted(formula) == sorted(reference)


def _one_link(capacity_fn=None, depth=1, delay_s=10e-6):
    """A queue on h1's uplink, logging arrivals and drops."""
    topo = linear(2, hosts_per_switch=1, capacity_bps=CAPACITY_BPS, delay_s=delay_s)
    port = topo.host("h1").uplink_port
    sim = Simulator()
    log = {"arrivals": [], "drops": []}
    queue = OutputQueue(
        sim,
        port.link.direction_from(port),
        capacity_packets=depth,
        on_arrival=lambda packet, dst_port: log["arrivals"].append(
            (sim.now, packet.packet_id, packet.accumulated_delay, packet.hops)),
        on_drop=lambda packet, d: log["drops"].append((sim.now, packet.packet_id)),
        capacity_fn=capacity_fn,
    )
    return topo, sim, queue, log


def _offer(queue, packet_id, size=1000):
    return queue.enqueue(Packet(headers=HeaderFields(), size_bytes=size, flow_id=1,
                                src="h1", dst="h2", packet_id=packet_id))


def test_a_waiter_starting_at_the_offer_instant_has_left_the_fifo():
    """Depth 1: packet 1 transmits, packet 2 waits and starts when
    packet 1's transmission ends.  A packet offered at exactly that
    instant is accepted behind it, and only it then waits (the
    two-event queue, whose transmission-end event fires after this
    offer, would still hold packet 2 and drop packet 3)."""
    _, sim, queue, log = _one_link(depth=1)
    tx = 1000 * 8.0 / CAPACITY_BPS
    seen = []
    sim.call_at(0.0, lambda sim_: seen.extend([_offer(queue, 1), _offer(queue, 2), queue.depth]))
    sim.call_at(tx, lambda sim_: seen.extend([_offer(queue, 3), queue.depth]))
    sim.run()
    assert seen == [True, True, 1, True, 1]
    assert [packet_id for _, packet_id, _, _ in log["arrivals"]] == [1, 2, 3]
    assert log["drops"] == [] and queue.depth == 0


def test_a_link_cut_while_packets_wait_loses_the_ones_arriving_while_down():
    """Five packets are accepted at t=0.  The link is cut at 1.0 ms and
    restored at 2.5 ms: packets 2 and 3 arrive while it is down and are
    lost through ``on_drop``, one offered during the cut is dropped at
    once, and 1, 4 and 5 are delivered.  The start-event path (a
    ``capacity_fn`` giving the same constant rate) does exactly the
    same, counters included."""

    def run(capacity_fn):
        topo, sim, queue, log = _one_link(capacity_fn=capacity_fn, depth=8)
        sim.call_at(0.0, lambda sim_: [_offer(queue, i) for i in range(1, 6)])
        sim.call_at(1.0e-3, lambda sim_: topo.fail_link("h1", "s1"))
        sim.call_at(2.0e-3, lambda sim_: _offer(queue, 6))
        sim.call_at(2.5e-3, lambda sim_: topo.restore_link("h1", "s1"))
        sim.run()
        direction = queue.direction
        src, dst = direction.src_port, direction.dst_port
        return log, (queue.enqueued, queue.dropped, queue.transmitted_bytes,
                     queue.busy_time, queue.depth,
                     src.tx_packets, src.tx_bytes, src.tx_dropped,
                     dst.rx_packets, dst.rx_bytes)

    formula = run(None)
    log, counters = formula
    assert [packet_id for _, packet_id, _, _ in log["arrivals"]] == [1, 4, 5]
    assert [packet_id for _, packet_id in log["drops"]] == [2, 6, 3]
    assert counters[:3] == (5, 3, 5000)
    assert formula == run(lambda direction: direction.capacity_bps)
