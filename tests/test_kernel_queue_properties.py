"""Property tests for the kernel and its compacting pending-event set.

Three invariants back the kernel work:

1. **The kernel fires what an oracle says** — :class:`Simulator`, on
   either queue class, driven by random programs of schedule, cancel,
   reschedule (of queued, fired and cancelled events), periodic series,
   a sequence number reserved at one step and pushed under at a later
   one, ``step``, ``run(until)`` and open-ended ``run()`` (which stops once
   only daemon series are live), fires events in the order of ``sorted()``
   over the live ``(time, priority, seq)`` keys of a model that knows
   nothing of heaps, entries or compaction, and reports the model's
   ``pending``, ``pending_raw`` and ``fired_count`` after every step.
2. **Pop-order transparency** — under any interleaving of push, cancel,
   reschedule, and compaction, :class:`HeapEventQueue` pops the same
   live-event sequence as the sorted-list queue, which never compacts.
   Compaction only removes entries that would never have fired, so it
   must be invisible to simulated behavior (this is what keeps run
   digests stable).
3. **Bounded memory** — with the default 0.5 threshold the raw heap
   never grows past ~2x the live events under sustained
   cancel/reschedule churn, the scalability property the pure-lazy
   kernel lacked.
"""

from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import CallbackEvent, Event, HeapEventQueue, Simulator
from repro.sim.kernel import RESCHEDULE_EPSILON

from diff.reference import SortedListEventQueue


class _Oracle:
    """The kernel's contract, computed with ``sorted()``.

    Every live item has one key ``(time, priority, seq)``; each
    schedule, re-arm, periodic successor and reservation takes the next
    ``seq``, and a push under a reservation uses the reserved one; a
    retiming of a live item to within ``RESCHEDULE_EPSILON`` of its time
    changes nothing; the next item to fire is the smallest live key.
    A periodic series is one item whose successor is keyed on firing.
    """

    def __init__(self):
        self._seq = count()
        self.keys = {}  # item -> key of its live entry
        self.series = {}  # periodic item -> (interval, until)
        self.fired = []  # (item, time) in firing order

    def reserve(self):
        return next(self._seq)

    def schedule(self, item, time, priority=0, seq=None):
        self.keys[item] = (time, priority, next(self._seq) if seq is None else seq)

    def reschedule(self, item, time, priority, seq=None):
        key = self.keys.get(item)
        if key is None or abs(key[0] - time) >= RESCHEDULE_EPSILON:
            self.schedule(item, time, priority, seq)

    def cancel(self, item):
        self.keys.pop(item, None)

    def fire_next(self, until=None, open_ended=False):
        """Fire the smallest live key (not past ``until``); False if none.
        ``open_ended`` also stops once only series (daemons) are live."""
        live = sorted((key, item) for item, key in self.keys.items())
        if not live or (until is not None and live[0][0][0] > until):
            return False
        if open_ended and all(item in self.series for item in self.keys):
            return False
        (time, priority, _), item = live[0]
        del self.keys[item]
        self.fired.append((item, time))
        if item in self.series:
            interval, bound = self.series[item]
            if time + interval <= bound:
                self.schedule(item, time + interval, priority)
        return True


# Steps are (op, dt, pick, priority).  Writes outnumber firings, so the
# heap fills with dead entries and compactions land on cancels and
# retimings alike.  "reserve" takes a seq, or with an odd pick pushes
# at the oldest one still held: a new item, or a retiming of an old one.
_OPS = ["schedule"] * 3 + ["cancel"] * 2 + ["reschedule"] * 3 + ["reserve"] * 2 + [
    "periodic",
    "step",
    "run",
    "drain",
]
_PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        st.integers(min_value=0, max_value=1_000),
        st.sampled_from([0, 1]),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAM, threshold=st.sampled_from([None, 0.25, 0.5]))
@example(
    # A retiming whose stale note triggers a compaction: the superseded
    # entry must already be dead, or the rebuild keeps it uncounted.
    program=[("schedule", 1.0, 0, 0)] * 4
    + [("cancel", 0.0, 0, 0), ("reschedule", 2.0, 1, 0)],
    threshold=0.25,
)
@example(
    # A compaction after a retiming must drop the superseded entry too.
    program=[("schedule", 1.0, 0, 0)] * 4
    + [("reschedule", 2.0, 0, 0), ("cancel", 0.0, 1, 0)],
    threshold=0.25,
)
@example(
    # A cancelled event's dead entry must not keep a daemon series
    # ticking through an open-ended run, compacted away or not.
    program=[("periodic", 0.0, 0, 0), ("schedule", 2.0, 0, 0),
             ("cancel", 0.0, 1, 0), ("drain", 0.0, 0, 0)],
    threshold=None,
)
@example(
    program=[("periodic", 0.0, 0, 0), ("schedule", 2.0, 0, 0),
             ("schedule", 1.0, 0, 0), ("reschedule", 0.5, 1, 0),
             ("drain", 0.0, 0, 0)],
    threshold=0.25,
)
@example(
    # A seq reserved before four ties and pushed under after a
    # compaction fires first of them.
    program=[("reserve", 0.0, 0, 0)] + [("schedule", 1.0, 0, 0)] * 4
    + [("cancel", 0.0, 0, 0), ("cancel", 0.0, 1, 0), ("reserve", 1.0, 1, 0),
       ("drain", 0.0, 0, 0)],
    threshold=0.25,
)
def test_property_kernel_matches_sorted_oracle(program, threshold):
    """Both queue classes fire the oracle's order and agree with its
    counters after every step of a random program."""
    heap = Simulator(
        queue=HeapEventQueue(compaction_threshold=threshold, min_compact_size=2)
    )
    listed = Simulator(queue=SortedListEventQueue())
    sims = (heap, listed)
    logs = ([], [])  # (item, time) fired, per simulator
    oracle = _Oracle()
    handles = []  # per item: one handle per simulator
    priorities = []
    reserved = []  # seqs taken and not yet pushed under, oldest first
    now = 0.0

    def record(sim, item, log):
        log.append((item, sim.now))

    for op, dt, pick, priority in program:
        item = len(handles)
        if op == "schedule":
            events = [
                sim.schedule(
                    CallbackEvent(now + dt, record, item, log, priority=priority)
                )
                for sim, log in zip(sims, logs)
            ]
            handles.append(events)
            priorities.append(priority)
            oracle.schedule(item, now + dt, priority)
        elif op == "periodic":
            interval = 0.5 + 0.5 * priority
            until = now + dt + 3.0
            events = [
                sim.every(
                    interval,
                    lambda s, t, item=item, log=log: log.append((item, t)),
                    start=now + dt,
                    until=until,
                )
                for sim, log in zip(sims, logs)
            ]
            handles.append(events)
            priorities.append(0)
            oracle.series[item] = (interval, until)
            oracle.schedule(item, now + dt)
        elif op in ("cancel", "reschedule") and handles:
            target = pick % len(handles)
            for sim, event in zip(sims, handles[target]):
                if op == "cancel":
                    sim.cancel(event)
                else:
                    assert sim.reschedule(event, now + dt) is event
            if op == "cancel":
                oracle.cancel(target)
            else:
                oracle.reschedule(target, now + dt, priorities[target])
        elif op == "reserve" and not (reserved and pick % 2):
            seq = oracle.reserve()
            assert [sim.reserve() for sim in sims] == [seq, seq]
            reserved.append(seq)
        elif op == "reserve":
            seq = reserved.pop(0)
            target = pick // 2 % len(handles) if handles and pick % 4 == 3 else None
            if target is None:
                events = [
                    sim.schedule(
                        CallbackEvent(now + dt, record, item, log, priority=priority),
                        seq=seq,
                    )
                    for sim, log in zip(sims, logs)
                ]
                handles.append(events)
                priorities.append(priority)
                oracle.schedule(item, now + dt, priority, seq)
            else:
                for sim, event in zip(sims, handles[target]):
                    sim.reschedule(event, now + dt, seq=seq)
                oracle.reschedule(target, now + dt, priorities[target], seq)
        elif op == "step":
            for sim in sims:
                sim.step()
            if oracle.fire_next():
                now = oracle.fired[-1][1]
        elif op == "run":
            for sim in sims:
                sim.run(until=now + dt)
            while oracle.fire_next(until=now + dt):
                pass
            now += dt  # run(until) leaves the clock at the horizon
        elif op == "drain":
            for sim in sims:
                sim.run()
            while oracle.fire_next(open_ended=True):
                now = oracle.fired[-1][1]

        assert heap.now == listed.now == now
        assert logs[0] == logs[1] == oracle.fired
        for sim in sims:
            assert sim.fired_count == len(oracle.fired)
        assert heap.pending == len(oracle.keys)
        assert listed.pending == listed.pending_raw >= len(oracle.keys)
        if threshold is None:
            assert heap.pending_raw == listed.pending_raw
        else:
            assert heap.pending <= heap.pending_raw <= listed.pending_raw


def _drain(queue):
    """Pop everything, returning the (time, seq) keys of live events."""
    out = []
    while len(queue):
        event = queue.pop()
        if not event.cancelled:
            out.append((event.time, event.seq))
    return out


# One workload step: (op, time_fraction, target_fraction).  The
# fractions pick the event time and which pending event to target, so
# any generated list is a valid program.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "cancel", "reschedule", "compact", "pop"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, threshold=st.sampled_from([0.25, 0.5, 0.9]))
def test_property_compaction_is_pop_order_transparent(steps, threshold):
    """Random push/cancel/reschedule/compact programs pop identically on
    a compacting heap and the sorted-list queue."""
    queue = HeapEventQueue(compaction_threshold=threshold, min_compact_size=4)
    reference = SortedListEventQueue()
    # Mirrored kernels stamp both queues' events with the same seqs.
    sim, ref_sim = Simulator(queue=queue), Simulator(queue=reference)
    live = []  # (mine, ref) pairs still expected in both queues
    popped_mine = []
    popped_ref = []

    def push_pair(time):
        a, b = Event(time), Event(time)
        sim.schedule(a)
        ref_sim.schedule(b)
        live.append((a, b))

    for op, tfrac, pick in steps:
        time = round(tfrac * 100.0, 3)
        if op == "push":
            push_pair(time)
        elif op == "cancel" and live:
            mine, ref = live.pop(int(pick * (len(live) - 0.001)))
            sim.cancel(mine)
            ref_sim.cancel(ref)
        elif op == "reschedule" and live:
            # Tombstone replacement, mirrored on both queues.
            idx = int(pick * (len(live) - 0.001))
            mine, ref = live.pop(idx)
            sim.cancel(mine)
            ref_sim.cancel(ref)
            push_pair(time)
        elif op == "compact":
            queue.compact()
        elif op == "pop":
            while len(queue):
                a = queue.pop()
                if not a.cancelled:
                    popped_mine.append((a.time, a.seq))
                    break
            while len(reference):
                b = reference.pop()
                if not b.cancelled:
                    popped_ref.append((b.time, b.seq))
                    break
            assert popped_mine == popped_ref

    assert popped_mine + _drain(queue) == popped_ref + _drain(reference)


@settings(max_examples=20, deadline=None)
@given(seed_times=st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=8, max_size=32
))
def test_property_heap_bounded_under_churn(seed_times):
    """Sustained cancel+push churn keeps the raw heap within ~2x live."""
    queue = HeapEventQueue(compaction_threshold=0.5, min_compact_size=8)
    sim = Simulator(queue=queue)
    events = [sim.call_at(t, lambda s: None) for t in sorted(seed_times)]
    live = len(events)
    for round_no in range(50):
        for i, event in enumerate(events):
            sim.cancel(event)
            events[i] = sim.call_at(
                event.time + round_no + 1.0, lambda s: None
            )
        assert len(queue) <= 2 * live + queue.min_compact_size
    assert queue.compactions > 0


def test_churn_memory_bound_at_scale():
    """Deterministic large-churn check: 1k live timers, 40 reschedule
    rounds — raw heap stays ~2x live (the pure-lazy kernel would grow
    to 40x)."""
    queue = HeapEventQueue(compaction_threshold=0.5, min_compact_size=64)
    sim = Simulator(queue=queue)
    n = 1000
    timers = [sim.call_at(float(i + 1), lambda s: None) for i in range(n)]
    peak = 0
    for round_no in range(40):
        for i, timer in enumerate(timers):
            timers[i] = sim.reschedule(timer, timer.time + 0.5)
        peak = max(peak, len(queue))
    assert peak <= 2 * n + queue.min_compact_size
    assert sim.pending == n


def test_compact_preserves_exact_pop_sequence():
    """Compacting mid-stream yields the byte-identical pop sequence."""
    plain = HeapEventQueue(compaction_threshold=None)
    compacting = HeapEventQueue(compaction_threshold=None)
    sims = (Simulator(queue=plain), Simulator(queue=compacting))
    pairs = []
    for t in [5.0, 1.0, 3.0, 1.0, 2.0, 4.0, 1.0, 9.0]:
        pair = (Event(t), Event(t))
        for sim, event in zip(sims, pair):
            sim.schedule(event)
        pairs.append(pair)
    for idx in (0, 3, 5):
        for sim, event in zip(sims, pairs[idx]):
            sim.cancel(event)
    compacting.compact()
    assert _drain(plain) == _drain(compacting)
    assert compacting.stale_discarded == 3


def test_invalid_queue_parameters_rejected():
    with pytest.raises(ValueError):
        HeapEventQueue(compaction_threshold=0.0)
    with pytest.raises(ValueError):
        HeapEventQueue(compaction_threshold=1.5)
    with pytest.raises(ValueError):
        HeapEventQueue(min_compact_size=-1)
