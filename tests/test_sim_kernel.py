"""Kernel tests: ordering, priorities, cancellation, periodic events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim import (
    CallbackEvent,
    Event,
    HeapEventQueue,
    PeriodicEvent,
    Simulator,
    SortedListEventQueue,
)


class Recorder(Event):
    def __init__(self, time, log, tag, priority=0):
        super().__init__(time, priority=priority)
        self.log = log
        self.tag = tag

    def fire(self, sim):
        self.log.append((sim.now, self.tag))


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    for t in (3.0, 1.0, 2.0):
        sim.schedule(Recorder(t, log, t))
    sim.run()
    assert [tag for _, tag in log] == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_same_time_orders_by_priority_then_insertion():
    sim = Simulator()
    log = []
    sim.schedule(Recorder(1.0, log, "b", priority=5))
    sim.schedule(Recorder(1.0, log, "a", priority=-5))
    sim.schedule(Recorder(1.0, log, "c", priority=5))
    sim.run()
    assert [tag for _, tag in log] == ["a", "b", "c"]


def test_call_at_and_call_in():
    sim = Simulator()
    hits = []
    sim.call_at(2.0, lambda s: hits.append(("at", s.now)))
    sim.call_in(1.0, lambda s: hits.append(("in", s.now)))
    sim.run()
    assert hits == [("in", 1.0), ("at", 2.0)]


def test_callback_event_receives_args():
    sim = Simulator()
    hits = []
    sim.call_at(1.0, lambda s, a, b=0: hits.append((a, b)), 7, b=9)
    sim.run()
    assert hits == [(7, 9)]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(5.0, lambda s: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(1.0, lambda s: None)
    with pytest.raises(SchedulingError):
        sim.call_in(-1.0, lambda s: None)


def test_negative_event_time_rejected():
    with pytest.raises(ValueError):
        Event(-1.0)


def test_cancelled_events_are_skipped():
    sim = Simulator()
    log = []
    event = sim.schedule(Recorder(1.0, log, "dead"))
    sim.schedule(Recorder(2.0, log, "alive"))
    event.cancel()
    sim.run()
    assert [tag for _, tag in log] == ["alive"]
    assert sim.fired_count == 1


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    log = []
    sim.schedule(Recorder(1.0, log, "early"))
    sim.schedule(Recorder(10.0, log, "late"))
    fired = sim.run(until=5.0)
    assert fired == 1
    assert sim.now == 5.0
    assert sim.pending == 1
    sim.run()
    assert [tag for _, tag in log] == ["early", "late"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_limit():
    sim = Simulator()
    log = []
    for t in range(5):
        sim.schedule(Recorder(float(t + 1), log, t))
    fired = sim.run(max_events=3)
    assert fired == 3
    assert len(log) == 3


def test_stop_inside_callback():
    sim = Simulator()
    log = []
    sim.call_at(1.0, lambda s: (log.append(1), s.stop()))
    sim.call_at(2.0, lambda s: log.append(2))
    sim.run()
    assert log == [1]
    assert sim.pending == 1


def test_periodic_event_repeats_until_bound():
    sim = Simulator()
    hits = []
    sim.every(1.0, lambda s, t: hits.append(t), start=1.0, until=3.5)
    # Periodic events are daemons: an open-ended run() would return at
    # once, so give the run an explicit horizon.
    sim.run(until=10.0)
    assert hits == [1.0, 2.0, 3.0]


def test_daemon_events_do_not_keep_run_alive():
    sim = Simulator()
    hits = []
    sim.every(1.0, lambda s, t: hits.append(t))
    sim.call_at(2.5, lambda s: None)  # live work until t=2.5
    sim.run()
    # Daemons tick while live work remains, then the run ends.
    assert hits == [1.0, 2.0]
    assert sim.now == 2.5


def test_periodic_stop_via_stopiteration():
    sim = Simulator()
    hits = []

    def cb(s, t):
        hits.append(t)
        if len(hits) >= 2:
            raise StopIteration

    sim.every(1.0, cb)
    sim.run(until=10.0)
    # StopIteration inside fire() ends that firing; the clone scheduled
    # before the raise means one extra tick can occur, never more.
    assert len(hits) <= 3


def test_periodic_invalid_interval():
    with pytest.raises(ValueError):
        PeriodicEvent(0.0, 0.0, lambda s, t: None)


def test_reset_clears_state():
    sim = Simulator()
    sim.call_at(1.0, lambda s: None)
    sim.run()
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.fired_count == 0


def test_trace_counts_event_types():
    from repro.telemetry import TraceBus, summarize_trace

    sim = Simulator()
    sim.trace_bus = TraceBus(sim)  # no path: records buffer in .events
    sim.call_at(1.0, lambda s: None)
    sim.call_at(2.0, lambda s: None)
    sim.run()
    fired = [r for r in sim.trace_bus.events if r["kind"] == "kernel.event"]
    assert [r["event"] for r in fired] == ["CallbackEvent"] * 2
    assert summarize_trace(fired)["kinds"]["kernel.event"]["count"] == 2


def test_nested_scheduling_during_run():
    sim = Simulator()
    log = []

    def outer(s):
        log.append("outer")
        s.call_in(1.0, lambda s2: log.append("inner"))

    sim.call_at(1.0, outer)
    sim.run()
    assert log == ["outer", "inner"]


@pytest.mark.parametrize("queue_cls", [HeapEventQueue, SortedListEventQueue])
def test_queue_implementations_pop_in_order(queue_cls):
    queue = queue_cls()
    events = [Event(t) for t in (5.0, 1.0, 3.0, 1.0)]
    for event in events:
        queue.push(event)
    times = [queue.pop().time for _ in range(len(events))]
    assert times == sorted(times)
    assert len(queue) == 0
    assert queue.peek() is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60))
def test_property_events_always_fire_sorted(times):
    sim = Simulator()
    log = []
    for t in times:
        sim.schedule(Recorder(t, log, t))
    sim.run()
    fired = [tag for _, tag in log]
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
def test_property_queue_parity(times):
    """Heap and sorted-list queues agree on the drain order."""
    heap, lst = HeapEventQueue(), SortedListEventQueue()
    for i, t in enumerate(times):
        a, b = Event(t), Event(t)
        a.seq = b.seq = i  # identical tie-break keys
        heap.push(a)
        lst.push(b)
    drained_heap = [heap.pop().time for _ in range(len(times))]
    drained_list = [lst.pop().time for _ in range(len(times))]
    assert drained_heap == drained_list == sorted(times)


class TestPeriodicSeriesCancellation:
    def test_cancel_after_first_firing_stops_the_series(self):
        """Regression: the handle from every() used to be dead after the
        first firing (the queued clone was a different object)."""
        sim = Simulator()
        hits = []
        handle = sim.every(1.0, lambda s, t: hits.append(t))
        sim.call_at(2.5, lambda s: handle.cancel())
        sim.call_at(10.0, lambda s: None)  # keep the run alive
        sim.run()
        assert hits == [1.0, 2.0]

    def test_cancel_after_n_firings(self):
        sim = Simulator()
        hits = []
        handle = sim.every(1.0, lambda s, t: hits.append(t))
        sim.call_at(4.5, lambda s: handle.cancel())
        sim.call_at(20.0, lambda s: None)
        sim.run()
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_before_first_firing(self):
        sim = Simulator()
        hits = []
        handle = sim.every(1.0, lambda s, t: hits.append(t))
        handle.cancel()
        sim.call_at(5.0, lambda s: None)
        sim.run()
        assert hits == []

    def test_callback_can_cancel_its_own_series(self):
        sim = Simulator()
        hits = []
        handle = sim.every(1.0, lambda s, t: (hits.append(t), handle.cancel()))
        sim.call_at(5.0, lambda s: None)
        sim.run()
        assert hits == [1.0]


class TestPendingAccounting:
    def test_pending_excludes_cancelled_events(self):
        sim = Simulator()
        live = sim.call_at(1.0, lambda s: None)
        dead = sim.call_at(2.0, lambda s: None)
        sim.cancel(dead)
        assert sim.pending == 1
        assert sim.pending_raw == 2
        assert live in (live,)  # silence unused warning

    def test_stats_snapshot_reports_live_and_raw(self):
        sim = Simulator()
        sim.call_at(1.0, lambda s: None)
        sim.cancel(sim.call_at(2.0, lambda s: None))
        snap = sim.stats_snapshot()
        assert snap["pending_events"] == 1
        assert snap["pending_raw"] == 2
        assert snap["queue_stale"] == 1
        assert "queue_compactions" in snap
        assert "queue_peak_size" in snap

    def test_pending_restored_after_pop(self):
        sim = Simulator()
        sim.cancel(sim.call_at(1.0, lambda s: None))
        sim.call_at(2.0, lambda s: None)
        sim.run()
        assert sim.pending == 0
        assert sim.pending_raw == 0
        assert sim.fired_count == 1


class TestSimulatorCancel:
    def test_cancel_returns_true_once(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda s: None)
        assert sim.cancel(event) is True
        assert sim.cancel(event) is False

    def test_mass_cancellation_triggers_compaction(self):
        queue = HeapEventQueue(compaction_threshold=0.5, min_compact_size=8)
        sim = Simulator(queue=queue)
        events = [sim.call_at(float(i + 1), lambda s: None) for i in range(64)]
        for event in events[: len(events) // 2 + 4]:
            sim.cancel(event)
        assert queue.compactions >= 1
        # Post-compaction cancels may leave tombstones, but always below
        # the threshold fraction of the (shrunken) heap.
        assert queue.stale <= 0.5 * len(queue) + 1
        # Live accounting survives the rebuild.
        assert sim.pending == queue.live
        fired = sim.run()
        assert fired == len(events) - (len(events) // 2 + 4)

    def test_compaction_disabled_with_none_threshold(self):
        queue = HeapEventQueue(compaction_threshold=None, min_compact_size=0)
        sim = Simulator(queue=queue)
        events = [sim.call_at(float(i + 1), lambda s: None) for i in range(32)]
        for event in events:
            sim.cancel(event)
        assert queue.compactions == 0
        assert len(queue) == 32  # tombstones linger until popped
        sim.run()
        assert sim.fired_count == 0


class TestReschedule:
    def test_reschedule_queued_event_moves_it(self):
        sim = Simulator()
        log = []
        event = sim.schedule(Recorder(5.0, log, "x"))
        handle = sim.reschedule(event, 1.0)
        sim.run()
        assert log == [(1.0, "x")]
        assert handle.time == 1.0

    def test_reschedule_unchanged_time_is_noop(self):
        sim = Simulator()
        event = sim.call_at(3.0, lambda s: None)
        before = sim.pending_raw
        handle = sim.reschedule(event, 3.0)
        assert handle is event
        assert sim.pending_raw == before

    def test_reschedule_fired_event_reuses_the_object(self):
        sim = Simulator()
        log = []

        def cb(s):
            log.append(s.now)
            if len(log) < 3:
                s.reschedule(timer, s.now + 1.0)

        timer = sim.call_at(1.0, cb)
        sim.run()
        assert log == [1.0, 2.0, 3.0]
        assert sim.pending_raw == 0

    def test_reschedule_into_past_raises(self):
        sim = Simulator()
        event = sim.call_at(10.0, lambda s: None)
        sim.call_at(5.0, lambda s: None)
        sim.run(until=6.0)
        with pytest.raises(SchedulingError):
            sim.reschedule(event, 1.0)

    def test_reschedule_returns_live_handle_for_queued_event(self):
        sim = Simulator()
        log = []
        stale = sim.schedule(Recorder(5.0, log, "a"))
        handle = sim.reschedule(stale, 7.0)
        assert stale.cancelled  # the argument became a tombstone
        assert not handle.cancelled
        sim.run()
        assert log == [(7.0, "a")]

    def test_reschedule_cancelled_unqueued_event_revives_it(self):
        sim = Simulator()
        log = []
        event = Recorder(2.0, log, "z")
        event.cancel()
        sim.reschedule(event, 3.0)
        sim.run()
        assert log == [(3.0, "z")]
