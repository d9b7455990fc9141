"""Link failure and recovery, for every engine.

The poster lists "link failure" among the event inputs to the topology.
:class:`LinkStateChange` is that input: the one event a one-shot
injection (``Engine.fail_link_at`` / ``restore_link_at``) schedules on
the flow, packet or hybrid engine, dispatching to the engine's
``on_link_state``.  This module also provides a renewal-process
injector: each watched link fails after an exponential time-to-failure
and recovers after an exponential time-to-repair, producing the
continuous churn needed for availability and convergence studies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
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


@dataclass(frozen=True)
class FaultProfile:
    """Failure statistics for a set of links.

    Attributes
    ----------
    mtbf_s:
        Mean time between failures (exponential), measured from the
        moment the link is (back) up.
    mttr_s:
        Mean time to repair (exponential).
    """

    mtbf_s: float
    mttr_s: float

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise SimulationError(
                f"MTBF and MTTR must be > 0, got {self.mtbf_s}, {self.mttr_s}"
            )


@dataclass
class FaultRecord:
    """One observed failure episode."""

    link: Tuple[str, str]
    failed_at: float
    repaired_at: Optional[float] = None

    @property
    def downtime_s(self) -> Optional[float]:
        if self.repaired_at is None:
            return None
        return self.repaired_at - self.failed_at


class LinkFaultInjector:
    """Drive failure/repair renewal processes on selected links.

    The injector drives the engine's ``on_link_state``, the handler a
    scripted :class:`LinkStateChange` fires, so the controller sees
    ordinary port-status churn and traffic re-routes exactly as under
    scripted failures, on any engine.

    Parameters
    ----------
    engine:
        The engine (flow, packet or hybrid) whose topology is being
        shaken.
    rng:
        Source of randomness (use a named stream from RngRegistry).
    horizon_s:
        No events are scheduled beyond this time.

    Examples
    --------
    injector = LinkFaultInjector(engine, rng, horizon_s=60.0)
    injector.watch(("s1", "s2"), FaultProfile(mtbf_s=20.0, mttr_s=2.0))
    injector.start()
    """

    def __init__(
        self,
        engine: "Engine",
        rng: random.Random,
        horizon_s: float,
    ) -> None:
        if horizon_s <= 0:
            raise SimulationError(f"horizon must be > 0, got {horizon_s}")
        self.engine = engine
        self.rng = rng
        self.horizon_s = horizon_s
        self._watched: Dict[Tuple[str, str], FaultProfile] = {}
        self._started = False
        #: Completed and in-progress failure episodes, in failure order.
        self.records: List[FaultRecord] = []
        self._open: Dict[Tuple[str, str], FaultRecord] = {}

    def watch(
        self, link: Tuple[str, str], profile: FaultProfile
    ) -> None:
        """Subject one link (by endpoint names) to the fault profile."""
        a, b = link
        # Validate the link exists up front.
        self.engine.topology.link_between(a, b)
        key = (a, b)
        if key in self._watched:
            raise SimulationError(f"link {key} already watched")
        self._watched[key] = profile
        if self._started:
            self._schedule_failure(key)

    def watch_all(
        self,
        links: Sequence[Tuple[str, str]],
        profile: FaultProfile,
    ) -> None:
        for link in links:
            self.watch(link, profile)

    def start(self) -> None:
        """Schedule the first failure of every watched link."""
        if self._started:
            return
        self._started = True
        for key in self._watched:
            self._schedule_failure(key)

    # ------------------------------------------------------------------
    def _schedule_failure(self, key: Tuple[str, str]) -> None:
        profile = self._watched[key]
        delay = self.rng.expovariate(1.0 / profile.mtbf_s)
        at = self.engine.sim.now + delay
        if at > self.horizon_s:
            return
        self.engine.sim.call_at(at, self._fail, key)

    def _fail(self, sim, key: Tuple[str, str]) -> None:
        a, b = key
        link = self.engine.topology.link_between(a, b)
        if not link.up:
            # Lost a race with a manual injection; try again later.
            self._schedule_failure(key)
            return
        record = FaultRecord(link=key, failed_at=sim.now)
        self.records.append(record)
        self._open[key] = record
        self.engine.on_link_state(a, b, up=False)
        profile = self._watched[key]
        repair_delay = self.rng.expovariate(1.0 / profile.mttr_s)
        sim.call_in(repair_delay, self._repair, key)

    def _repair(self, sim, key: Tuple[str, str]) -> None:
        a, b = key
        record = self._open.pop(key, None)
        if record is not None:
            record.repaired_at = sim.now
        self.engine.on_link_state(a, b, up=True)
        self._schedule_failure(key)

    # ------------------------------------------------------------------
    def availability(self, link: Tuple[str, str], until: float) -> float:
        """Fraction of [0, until] the link was up."""
        down = 0.0
        for record in self.records:
            if record.link != link:
                continue
            end = record.repaired_at if record.repaired_at is not None else until
            down += min(end, until) - min(record.failed_at, until)
        return 1.0 - down / until if until > 0 else 1.0

    def failure_count(self, link: Optional[Tuple[str, str]] = None) -> int:
        if link is None:
            return len(self.records)
        return sum(1 for r in self.records if r.link == link)
