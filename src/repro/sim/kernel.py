"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the pending-event set.  All
subsystems — the flow-level engine, the packet-level baseline, the
controller's monitoring loops — schedule events on one shared kernel, so a
single temporal order spans data and control planes, exactly the coupling
the Horse poster calls out ("traffic statistics and the state of the
topology are updated after every event and exported to a control plane
module").
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Optional

from ..errors import SchedulingError
from .event import CallbackEvent, Event, PeriodicEvent
from .queue import HeapEventQueue

#: Rescheduling a timer to within this of its current firing time is a
#: no-op (the flow-engine completion path relies on this fast path to
#: schedule nothing when a recomputed completion time is unchanged).
RESCHEDULE_EPSILON = 1e-9

class Simulator:
    """Discrete-event simulator with a deterministic event order.

    Parameters
    ----------
    queue:
        Pending-event set; defaults to a :class:`HeapEventQueue` with
        the default compaction threshold.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.call_at(1.5, lambda s: hits.append(s.now))
    >>> _ = sim.run()
    >>> hits
    [1.5]
    """

    def __init__(self, queue: Optional[HeapEventQueue] = None) -> None:
        self._queue = queue if queue is not None else HeapEventQueue()
        self._live_pending = 0  # live non-daemon events (see _settle)
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: Total number of events fired so far (skipped cancellations excluded).
        self.fired_count = 0
        #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
        #: None; every emission site checks ``is not None``, so the
        #: disabled path costs one attribute read.  Each fired event is
        #: a ``kernel.event`` span carrying the event type.
        self.trace_bus = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of *live* events still queued.

        Dead entries (cancelled or rescheduled events) awaiting lazy
        removal are excluded; use :attr:`pending_raw` for the raw
        pending-set size.
        """
        return self._queue.live

    @property
    def pending_raw(self) -> int:
        """Raw pending-set size, dead entries included."""
        return len(self._queue)

    def stats_snapshot(self) -> dict:
        """Kernel counters (picklable metrics source for
        :class:`repro.telemetry.MetricsRegistry`).

        ``pending_events`` reports live events only; the raw queue size
        (with dead entries) is ``pending_raw``, and the ``queue_*`` keys
        expose the pending-set health counters (stale entries,
        compactions, discarded entries, peak size).
        """
        snap = {
            "now": self._now,
            "fired_events": self.fired_count,
            "pending_events": self.pending,
            "pending_raw": len(self._queue),
        }
        for key, value in self._queue.health().items():
            snap[f"queue_{key}"] = value
        return snap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def reserve(self) -> int:
        """Take the next sequence number now, for a push made later
        (``schedule`` / ``reschedule`` with ``seq=``): the event then
        breaks ties as if it had been scheduled at this call."""
        return next(self._seq)

    def schedule(self, event: Event, seq: Optional[int] = None) -> Event:
        """Insert an event into the pending set.

        The event's sequence number is re-stamped so that insertion order
        breaks time/priority ties deterministically: with the next one,
        or with ``seq``, a number :meth:`reserve` handed out.
        """
        if event.time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={event.time} before now={self._now}"
            )
        event.seq = next(self._seq) if seq is None else seq
        if not event.daemon:
            self._live_pending += 1
        event.queued = True
        self._queue.push(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel an event, the one way to set ``event.cancelled``.

        A queued event leaves the live count, and the queue learns its
        entry is a tombstone and, when tombstones exceed its compaction
        threshold, is rebuilt in place (see
        :meth:`repro.sim.queue.HeapEventQueue.compact`).  Returns True
        when this call cancelled the event, False when it was already
        cancelled.
        """
        if event.cancelled:
            return False
        event.cancelled = True
        if event.queued:
            self._settle(event)
            if self._queue.note_cancel(event):
                self._compact()
        return True

    def reschedule(
        self, event: Event, new_time: float, seq: Optional[int] = None
    ) -> Event:
        """Move a timer to ``new_time``; returns ``event``.

        The first-class alternative to the cancel-and-push idiom for
        reschedulable timers (flow-completion projections, pacing
        ticks, sync ticks).  The event is re-stamped and pushed as a
        new entry, so the handle stays the same object:

        - already fired, cancelled, or never scheduled: one push
          re-arms it (a cancelled event is revived);
        - still queued at a different time: the queued entry is dead
          from then on (its ``seq`` is no longer the event's) and is
          counted stale, like a cancellation, for compaction;
        - still queued within :data:`RESCHEDULE_EPSILON` of
          ``new_time``: nothing is scheduled.

        ``seq`` is passed on to :meth:`schedule`.
        """
        if new_time < self._now:
            raise SchedulingError(
                f"cannot reschedule event to t={new_time} before now={self._now}"
            )
        if event.queued:  # so not cancelled
            if abs(event.time - new_time) < RESCHEDULE_EPSILON:
                return event
            # Kill the entry before noting it, so a compaction the note
            # triggers drops it (the re-stamp below keeps it dead once
            # revived).
            event.cancelled = True
            if self._queue.note_cancel(event):
                self._compact()
            self._settle(event)
        event.cancelled = False
        event.time = float(new_time)
        self.schedule(event, seq)
        return event

    def _compact(self) -> None:
        """Rebuild the pending set without tombstones (trace-spanned)."""
        queue = self._queue
        bus = self.trace_bus
        if bus is not None:
            with bus.span("kernel.compact", raw=len(queue), stale=queue.stale):
                queue.compact()
        else:
            queue.compact()

    def _settle(self, event: Event) -> None:
        """Drop a queued event that will not fire from the live count:
        at cancel or retiming, before its entry dies.  Dead entries
        never move the count, so compaction cannot end a run early."""
        event.queued = False
        if not event.daemon:
            self._live_pending -= 1

    def call_at(
        self, time: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> CallbackEvent:
        """Schedule ``callback(sim, *args, **kwargs)`` at absolute ``time``."""
        if kwargs:
            callback = partial(callback, **kwargs)
        return self.schedule(CallbackEvent(time, callback, *args))

    def call_in(
        self, delay: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> CallbackEvent:
        """Schedule ``callback`` after a relative ``delay`` from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.call_at(self._now + delay, callback, *args, **kwargs)

    def every(
        self,
        interval: float,
        callback: Callable[[Any, float], None],
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> PeriodicEvent:
        """Schedule ``callback(sim, t)`` every ``interval`` seconds.

        ``start`` defaults to ``now + interval``.  Returns the
        :class:`PeriodicEvent`, the one object that re-arms after each
        firing: :meth:`cancel` on it ends the series at any point,
        :meth:`reschedule` moves its next tick, and ``until`` bounds it.
        """
        first = (self._now + interval) if start is None else start
        event = PeriodicEvent(first, interval, callback, until=until)
        self.schedule(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Fire the next live event; return it, or None if empty."""
        pop = self._queue.pop_entry
        while len(self._queue):
            _, _, seq, event = pop()
            if not event.cancelled and seq == event.seq:
                # Back under the same (time, priority, seq): run fires it.
                self._queue.push(event)
                self.run(until=event.time, max_events=1)
                return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the event set drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired by
        this call.  When stopped by ``until``, the clock is advanced to
        exactly ``until``.
        """
        if self._running:
            raise SchedulingError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = queue.pop_entry
        fired = 0
        try:
            while not self._stopped and (max_events is None or fired < max_events):
                try:
                    _, _, seq, event = pop()
                except IndexError:
                    break
                if event.cancelled or seq != event.seq:
                    continue  # a dead entry
                # An event the run stops at goes back unfired: its entry
                # is rebuilt from the same (time, priority, seq).
                if until is None:
                    if event.daemon and self._live_pending <= 0:
                        # Open-ended run with only daemon housekeeping
                        # left: nothing can make further progress, so we
                        # are done.  (With an explicit `until`, daemons
                        # keep ticking to the horizon — callers asked
                        # for that much time.)
                        queue.push(event)
                        break
                elif event.time > until:
                    queue.push(event)
                    self._now = until
                    break
                event.queued = False
                if not event.daemon:
                    self._live_pending -= 1
                self._now = event.time
                # Counted before firing so that state captured *inside* a
                # callback (periodic checkpointing) already includes the
                # firing event: a restored run never re-counts it.
                self.fired_count += 1
                bus = self.trace_bus
                if bus is None:
                    event.fire(self)
                else:
                    with bus.span("kernel.event", event=type(event).__name__):
                        event.fire(self)
                fired += 1
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return fired

    def stop(self) -> None:
        """Request that a running :meth:`run` loop return after the
        current event."""
        self._stopped = True

    def __getstate__(self) -> dict:
        """Pickle support for checkpoint/restore.

        A snapshot may be captured from inside a firing event (periodic
        checkpointing), so the transient execution flags are normalized:
        the restored kernel is always resumable with a fresh
        :meth:`run` call.
        """
        state = dict(self.__dict__)
        state["_running"] = False
        state["_stopped"] = False
        return state
