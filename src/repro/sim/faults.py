"""Link failure and recovery, for every engine.

The poster lists "link failure" among the event inputs to the topology.
:class:`LinkStateChange` is that input: the one event a fault
(``Engine.fail_link_at`` / ``restore_link_at``, which ``Horse.fail_link``
/ ``restore_link`` and a scenario document's ``faults`` list reach)
schedules on the flow, packet or hybrid engine, dispatching to the
engine's ``on_link_state``.  Churn is document data too: a generator
that draws failure and repair instants writes them as a ``faults`` list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

#: Link state changes fire first among same-instant events: flow
#: arrivals, completions and re-route sweeps then see the new topology.
PRIO_LINK = -10


class LinkStateChange(Event):
    """An injected link failure (``up`` False) or recovery (True)."""

    __slots__ = ("engine", "node_a", "node_b", "up")

    def __init__(
        self, time: float, engine: "Engine", node_a: str, node_b: str, up: bool
    ) -> None:
        super().__init__(time, priority=PRIO_LINK)
        self.engine = engine
        self.node_a = node_a
        self.node_b = node_b
        self.up = up

    def fire(self, sim) -> None:
        self.engine.on_link_state(self.node_a, self.node_b, up=self.up)
