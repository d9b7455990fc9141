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
import time as _time
from typing import Any, Callable, Iterable, List, Optional

from ..errors import SchedulingError
from .event import CallbackEvent, Event, PeriodicEvent
from .queue import EventQueue, HeapEventQueue

#: Rescheduling a timer to within this of its current firing time is a
#: no-op (the flow-engine completion path relies on this fast path to
#: schedule nothing when a recomputed completion time is unchanged).
RESCHEDULE_EPSILON = 1e-9

#: Event class -> compiled copier, filled lazily by :func:`_clone_event`.
_CLONE_CACHE: dict = {}


def _make_copier(cls):
    """Compile a straight-line shallow copier for an event class.

    ``Simulator.reschedule`` mints one clone per retiming of a queued
    timer, so cloning sits on the churn hot path; both ``copy.copy``
    (via ``__reduce_ex__``) and a generic getattr/setattr loop cost
    more there than the heap push itself.  Generating the per-class
    assignments once (the ``namedtuple``/``dataclasses`` technique)
    keeps the per-clone work at plain attribute loads and stores.
    """
    slots = tuple(
        dict.fromkeys(
            name
            for klass in cls.__mro__
            for name in getattr(klass, "__slots__", ())
        )
    )
    lines = "\n    ".join(f"clone.{name} = event.{name}" for name in slots)
    source = (
        "def copier(event, _new=_new, _cls=_cls):\n"
        "    clone = _new(_cls)\n"
        f"    {lines}\n"
        "    state = getattr(event, '__dict__', None)\n"
        "    if state:\n"
        "        clone.__dict__.update(state)\n"
        "    return clone\n"
    )
    namespace = {"_new": object.__new__, "_cls": cls, "getattr": getattr}
    exec(source, namespace)
    return namespace["copier"]


def _clone_event(event: Event) -> Event:
    """Shallow-copy an event via its class's compiled copier."""
    cls = type(event)
    copier = _CLONE_CACHE.get(cls)
    if copier is None:
        copier = _make_copier(cls)
        _CLONE_CACHE[cls] = copier
    return copier(event)


class Simulator:
    """Discrete-event simulator with a deterministic event order.

    Parameters
    ----------
    queue:
        Pending-event set implementation; defaults to the binary heap.
        The sorted-list variant exists for the E6 ablation.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.call_at(1.5, lambda s: hits.append(s.now))
    >>> _ = sim.run()
    >>> hits
    [1.5]
    """

    def __init__(self, queue: Optional[EventQueue] = None) -> None:
        self._queue: EventQueue = queue if queue is not None else HeapEventQueue()
        self._live_pending = 0  # non-daemon events still queued
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: Total number of events fired so far (skipped cancellations excluded).
        self.fired_count = 0
        #: Structured trace sink (:class:`repro.telemetry.TraceBus`) or
        #: None; every emission site checks ``is not None``, so the
        #: disabled path costs one attribute read.  Each fired event is
        #: a ``kernel.event`` record carrying the event type.
        self.trace_bus = None
        #: Per-phase profiler (:class:`repro.telemetry.PhaseProfiler`) or
        #: None.  The kernel charges the inclusive "dispatch" phase.
        self.profiler = None

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

        Cancelled events awaiting lazy removal are excluded; use
        :attr:`pending_raw` for the raw pending-set size.
        """
        queue = self._queue
        live = getattr(queue, "live", None)
        return live if live is not None else len(queue)

    @property
    def pending_raw(self) -> int:
        """Raw pending-set size, including cancelled tombstones."""
        return len(self._queue)

    def stats_snapshot(self) -> dict:
        """Kernel counters (picklable metrics source for
        :class:`repro.telemetry.MetricsRegistry`).

        ``pending_events`` reports live events only; the raw queue size
        (with tombstones) is ``pending_raw``, and the ``queue_*`` keys
        expose the pending-set health counters (stale entries,
        compactions, discarded tombstones, peak size).
        """
        snap = {
            "now": self._now,
            "fired_events": self.fired_count,
            "pending_events": self.pending,
            "pending_raw": len(self._queue),
        }
        health = getattr(self._queue, "health", None)
        if health is not None:
            for key, value in health().items():
                snap[f"queue_{key}"] = value
        return snap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event) -> Event:
        """Insert an event into the pending set.

        The event's sequence number is re-stamped so that insertion order
        breaks time/priority ties deterministically.
        """
        if event.time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={event.time} before now={self._now}"
            )
        event.seq = next(self._seq)
        if not event.daemon:
            self._live_pending += 1
        event.queued = True
        self._queue.push(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled event, keeping the pending set healthy.

        Equivalent to ``event.cancel()`` plus stale accounting: the
        queue learns the entry is a tombstone and, when tombstones
        exceed its compaction threshold, is rebuilt in place (see
        :meth:`repro.sim.queue.HeapEventQueue.compact`).  Returns True
        when this call cancelled the event, False when it was already
        cancelled.  Prefer this over ``event.cancel()`` for events that
        are cancelled en masse (rate-change churn); direct
        ``event.cancel()`` still works but leaves the tombstone
        unaccounted until it is popped.
        """
        if event.cancelled:
            return False
        event.cancel()
        if event.queued:
            note = getattr(self._queue, "note_cancel", None)
            if note is not None and note(event):
                self._compact()
        return True

    def reschedule(self, event: Event, new_time: float) -> Event:
        """Move a timer to ``new_time`` and return the live handle.

        The first-class alternative to the cancel-and-push idiom for
        reschedulable timers (flow-completion projections, pacing
        ticks, sync ticks):

        - already fired (or never scheduled): the same object is
          re-armed with a single push — no tombstone, no allocation;
        - still queued at a different time: the queued entry is
          tombstoned in place and a clone is pushed
          (decrease/increase-key by stale-tombstone replacement);
        - still queued within :data:`RESCHEDULE_EPSILON` of
          ``new_time``: nothing is scheduled and the same handle comes
          back.

        Callers must treat the *returned* event as the live handle; the
        argument may have become a tombstone.
        """
        if new_time < self._now:
            raise SchedulingError(
                f"cannot reschedule event to t={new_time} before now={self._now}"
            )
        if event.queued:
            if (
                not event.cancelled
                and abs(event.time - new_time) < RESCHEDULE_EPSILON
            ):
                return event
            replacement = _clone_event(event)
            replacement.queued = False
            replacement.cancelled = False
            replacement.time = float(new_time)
            if not event.cancelled:
                # Tombstone the queued entry directly: subclass
                # ``cancel`` overrides (a periodic series' cascading
                # cancellation) must not run for a retiming.
                event.cancelled = True
                note = getattr(self._queue, "note_cancel", None)
                if note is not None and note(event):
                    self._compact()
            self.schedule(replacement)
            return replacement
        event.cancelled = False
        event.time = float(new_time)
        self.schedule(event)
        return event

    def _compact(self) -> None:
        """Rebuild the pending set without tombstones (trace-spanned)."""
        queue = self._queue
        bus = self.trace_bus
        if bus is not None:
            with bus.span(
                "kernel.compact",
                raw=len(queue),
                stale=queue.stale,
            ):
                dropped = queue.compact()
        else:
            dropped = queue.compact()
        for event in dropped:
            if not event.daemon:
                self._live_pending -= 1

    def call_at(
        self, time: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> CallbackEvent:
        """Schedule ``callback(sim, *args, **kwargs)`` at absolute ``time``."""
        event = CallbackEvent(time, callback, *args, **kwargs)
        self.schedule(event)
        return event

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

        ``start`` defaults to ``now + interval``.  Returns the first
        periodic event, which doubles as the series handle: cancelling
        it stops the recurrence at any point — before the first tick or
        after any number of firings (the whole series shares one
        cancellation flag).  The ``until`` bound and raising
        StopIteration from the callback also end the series.
        """
        first = (self._now + interval) if start is None else start
        event = PeriodicEvent(first, interval, callback, until=until)
        self.schedule(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Fire the next non-cancelled event; return it, or None if empty."""
        while len(self._queue):
            event = self._queue.pop()
            event.queued = False
            if not event.daemon:
                self._live_pending -= 1
            if event.cancelled:
                continue
            self._now = event.time
            # Counted before firing so that state captured *inside* a
            # callback (periodic checkpointing) already includes the
            # firing event: a restored run never re-counts it.
            self.fired_count += 1
            profiler = self.profiler
            try:
                if profiler is not None:
                    _t0 = _time.perf_counter()  # repro: noqa[DET001] - profiler timing; never feeds sim state
                    try:
                        event.fire(self)
                    finally:
                        profiler.add("dispatch", _time.perf_counter() - _t0)  # repro: noqa[DET001] - profiler timing; never feeds sim state
                else:
                    event.fire(self)
            except StopIteration:
                # A periodic callback may raise StopIteration to end its series.
                pass
            if self.trace_bus is not None:
                self.trace_bus.emit("kernel.event", event=type(event).__name__)
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
        fired = 0
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                head = self._queue.peek()
                while head is not None and head.cancelled:
                    dead = self._queue.pop()
                    dead.queued = False
                    if not dead.daemon:
                        self._live_pending -= 1
                    head = self._queue.peek()
                if head is None:
                    break
                if until is None and self._live_pending <= 0 and head.daemon:
                    # Open-ended run with only daemon housekeeping left:
                    # nothing can make further progress, so we are done.
                    # (With an explicit `until`, daemons keep ticking to
                    # the horizon — callers asked for that much time.)
                    break
                if until is not None and head.time > until:
                    self._now = until
                    break
                self.step()
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

    def drain(self, events: Iterable[Event]) -> List[Event]:
        """Schedule a batch of events and return them (convenience)."""
        return [self.schedule(e) for e in events]

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

    def reset(self) -> None:
        """Clear the event set and rewind the clock to zero."""
        if self._running:
            raise SchedulingError("cannot reset a running simulator")
        self._queue.clear()
        self._live_pending = 0
        self._now = 0.0
        self.fired_count = 0
        self._seq = itertools.count()
