"""Event primitives for the discrete-event kernel.

The poster describes the data plane as driven by "a temporally ordered set
of inputs for the topology".  :class:`Event` is the base type of every such
input.  Events carry an absolute firing ``time`` and a kernel-assigned
sequence number used to break ties deterministically, so two runs with the
same seed produce identical event orderings.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

#: Module-level counter used only when events are created outside a kernel
#: (e.g. in unit tests); the kernel re-stamps sequence numbers on schedule.
_FALLBACK_SEQ = itertools.count()  # repro: noqa[SNAP002] - kernel re-stamps seq on schedule; never crosses a checkpoint


class Event:
    """A schedulable occurrence at an absolute simulation time.

    Subclasses override :meth:`fire` to perform their effect.  The
    pending set orders events by ``(time, priority, seq)``.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Secondary ordering key for events at the same instant; lower
        fires first.  Defaults to 0.
    """

    __slots__ = ("time", "priority", "seq", "cancelled", "daemon", "queued")

    def __init__(self, time: float, priority: int = 0) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        self.time = float(time)
        self.priority = priority
        self.seq = next(_FALLBACK_SEQ)
        #: Set by ``Simulator.cancel`` only, so the kernel's counts hold.
        self.cancelled = False
        #: Daemon events (periodic housekeeping like monitoring polls) do
        #: not keep the simulation alive: run() returns once only daemon
        #: events remain, mirroring daemon-thread semantics.
        self.daemon = False
        #: True from schedule until the event fires or is cancelled: a
        #: queued event has a live entry in the pending set, which
        #: ``Simulator.cancel`` and ``Simulator.reschedule`` leave dead.
        self.queued = False

    def fire(self, sim: "Any") -> None:
        """Execute the event's effect.

        Parameters
        ----------
        sim:
            The :class:`~repro.sim.kernel.Simulator` executing the event.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        return f"<{type(self).__name__} t={self.time:.6f}{flag}>"


class CallbackEvent(Event):
    """An event that invokes an arbitrary callable when fired.

    The callable receives the simulator as its only positional argument,
    followed by any ``args`` captured at creation.  One is built per
    packet hop, so :class:`Event`'s constructor is written out here.
    """

    __slots__ = ("callback", "args")

    def __init__(
        self, time: float, callback: Callable[..., None], *args: Any, priority: int = 0
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        self.time = float(time)
        self.priority = priority
        self.seq = next(_FALLBACK_SEQ)
        self.cancelled = self.daemon = self.queued = False
        self.callback = callback
        self.args = args

    def fire(self, sim: Any) -> None:
        self.callback(sim, *self.args)


class PeriodicEvent(Event):
    """An event that re-arms itself every ``interval`` seconds.

    Used for monitoring polls and statistics sampling.  One object is
    the whole recurrence: after the callback it is rescheduled
    ``interval`` later, unless the callback cancelled or re-armed it or
    the next firing would pass ``until``.  So ``Simulator.cancel`` on it stops
    the series at any point, and ``Simulator.reschedule`` moves it.
    """

    __slots__ = ("callback", "interval", "until")

    def __init__(
        self,
        time: float,
        interval: float,
        callback: Callable[[Any, float], None],
        until: Optional[float] = None,
        priority: int = 0,
        daemon: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        super().__init__(time, priority=priority)
        self.callback = callback
        self.interval = float(interval)
        self.until = until
        # Periodic housekeeping defaults to daemon so an idle monitor
        # cannot keep run() spinning forever.
        self.daemon = daemon

    def fire(self, sim: Any) -> None:
        self.callback(sim, self.time)
        # Re-armed after the callback, so it takes the sequence number a
        # push at the end of the firing would; not if the callback
        # cancelled or re-armed the event itself.
        next_time = self.time + self.interval
        if not (self.cancelled or self.queued) and (
            self.until is None or next_time <= self.until
        ):
            sim.reschedule(self, next_time)
