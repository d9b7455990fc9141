"""Flow-engine events: the "temporally ordered set of inputs for the topology".

Flow arrivals/completions and coalesced re-route sweeps; link failures
and recoveries are the one :class:`~repro.sim.faults.LinkStateChange`
every engine shares.  Event priorities order same-instant processing:
link state changes (``PRIO_LINK``) apply before flow arrivals, and
re-route sweeps run last so they see every rule installed at that
instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import FlowLevelEngine
    from .flow import Flow

#: Event priorities (lower fires first at equal times; sim.faults.PRIO_LINK is -10).
PRIO_ARRIVAL = 0
PRIO_COMPLETION = 5
PRIO_REROUTE = 10


class FlowArrival(Event):
    """A new flow starts offering traffic."""

    __slots__ = ("engine", "flow")

    def __init__(self, time: float, engine: "FlowLevelEngine", flow: "Flow") -> None:
        super().__init__(time, priority=PRIO_ARRIVAL)
        self.engine = engine
        self.flow = flow

    def fire(self, sim) -> None:
        self.engine.on_arrival(self.flow)


class FlowCompletion(Event):
    """A volume flow drained its last byte at ``due``, its projection.
    The event may be queued earlier than that, never later, and is pushed
    at ``due`` under ``due_seq``, the seq reserved when ``due`` moved."""

    __slots__ = ("engine", "flow", "due", "due_seq")

    def __init__(self, time: float, engine: "FlowLevelEngine", flow: "Flow") -> None:
        super().__init__(time, priority=PRIO_COMPLETION)
        self.engine = engine
        self.flow = flow
        self.due = time
        self.due_seq = None

    def fire(self, sim) -> None:
        if self.time < self.due:
            # Ahead of a projection that moved later: wait for it,
            # accruing nothing (that would split the byte sum).
            sim.reschedule(self, self.due, seq=self.due_seq)
        else:
            self.engine.on_completion(self.flow)


class FlowEnd(Event):
    """A continuous flow reaches its configured duration."""

    __slots__ = ("engine", "flow")

    def __init__(self, time: float, engine: "FlowLevelEngine", flow: "Flow") -> None:
        super().__init__(time, priority=PRIO_COMPLETION)
        self.engine = engine
        self.flow = flow

    def fire(self, sim) -> None:
        self.engine.on_end(self.flow)


class RerouteSweep(Event):
    """Coalesced re-route of flows affected by rule/link changes."""

    __slots__ = ("engine",)

    def __init__(self, time: float, engine: "FlowLevelEngine") -> None:
        super().__init__(time, priority=PRIO_REROUTE)
        self.engine = engine

    def fire(self, sim) -> None:
        self.engine.on_reroute_sweep()
