"""Rate limiting via meters (the poster's "rate limit policy ...
500 Mbps" example).

Each limit compiles to a meter plus a rule directing matching traffic
through it.  Because the limiting rule must not hide the forwarding
decision, the app is designed for multi-table composition: its rules
live in an early table and jump to the next one (``GotoTable``), where
forwarding apps match again.  The policy composer assigns tables; using
the app standalone with a single-table pipeline raises a clear error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ...errors import ControlPlaneError
from ...openflow.action import GotoTable, MeterInstruction
from ...openflow.match import Match
from ..app import ControllerApp


@dataclass(frozen=True)
class RateLimit:
    """One limit: traffic matching ``match`` is capped at ``rate_bps``.

    ``scope`` limits installation to the named switches (default: the
    first switch on the matched traffic's path is unknown to the app,
    so all switches meter it; metering the same aggregate at several
    hops is harmless — the first meter is binding).
    """

    match: Match
    rate_bps: float
    scope: Optional[Sequence[str]] = None
    burst_bits: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate_bps > 0:
            raise ControlPlaneError(f"rate must be > 0, got {self.rate_bps}")


class RateLimiterApp(ControllerApp):
    """Install meters + metering rules for a list of :class:`RateLimit`.

    Parameters
    ----------
    limits:
        The limits to enforce.
    priority:
        Priority of metering rules within their table.
    """

    def __init__(
        self,
        limits: Sequence[RateLimit] = (),
        name: str = "rate-limiter",
        priority: int = 50,
    ) -> None:
        super().__init__(name)
        self.limits: List[RateLimit] = list(limits)
        self.priority = priority
        #: Set by the policy composer: the table forwarding lives in.
        self.next_table: Optional[int] = None
        self._next_meter: dict = {}

    def _require_next_table(self) -> int:
        next_table = (
            self.next_table if self.next_table is not None else self.table_id + 1
        )
        # Validate against an actual pipeline.
        for switch in self.topology.switches:
            if switch.pipeline is not None and next_table >= len(
                switch.pipeline.tables
            ):
                raise ControlPlaneError(
                    f"rate limiting needs a table after {self.table_id} to jump "
                    f"to, but {switch.name} has only "
                    f"{len(switch.pipeline.tables)} tables; build pipelines "
                    "with num_tables >= 2 or use the policy composer"
                )
        return next_table

    def _scoped_dpids(self, limit: RateLimit) -> List[int]:
        if limit.scope is None:
            return self.channel.datapath_ids()
        names = set(limit.scope)
        return [s.dpid for s in self.topology.switches if s.name in names]

    def start(self) -> None:
        next_table = self._require_next_table()
        # A low-priority pass-through so unmatched traffic still reaches
        # the forwarding table.
        for dpid in self.channel.datapath_ids():
            self.add_flow(dpid, Match(), (GotoTable(next_table),), priority=0)
        for limit in self.limits:
            self._install(limit, next_table)

    def _install(self, limit: RateLimit, next_table: int) -> None:
        for dpid in self._scoped_dpids(limit):
            meter_id = self._allocate_meter(dpid)
            self.add_meter(
                dpid, meter_id, limit.rate_bps, burst_bits=limit.burst_bits
            )
            self.add_flow(
                dpid,
                limit.match,
                (MeterInstruction(meter_id), GotoTable(next_table)),
                priority=self.priority,
            )

    def _allocate_meter(self, dpid: int) -> int:
        self._next_meter[dpid] = self._next_meter.get(dpid, 0) + 1
        return self._next_meter[dpid]

    # ------------------------------------------------------------------
    def add_limit(self, limit: RateLimit) -> None:
        """Enforce a new limit at runtime."""
        self.limits.append(limit)
        self._install(limit, self._require_next_table())
