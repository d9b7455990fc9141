"""Flow objects — the unit of traffic in Horse.

The poster: "a data flow is an aggregate of packets with equal values of
the header fields, but with different traffic rates."  A :class:`Flow`
couples such a header tuple with an offered rate (``demand_bps``) and
either a finite volume (``size_bytes``; the flow completes when the
volume drains) or a duration (continuous flows).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from ..net.link import LinkDirection
from ..openflow.headers import HeaderFields

_FLOW_IDS = itertools.count(1)


def reset_flow_ids() -> None:
    """Rewind the process-global flow-id counter to its import-time
    state (sweep workers isolate jobs this way)."""
    global _FLOW_IDS
    _FLOW_IDS = itertools.count(1)


def advance_flow_ids(minimum: int) -> None:
    """Ensure future flow ids are > ``minimum`` (checkpoint restore
    advances past the snapshot's watermark)."""
    global _FLOW_IDS
    _FLOW_IDS = itertools.count(max(next(_FLOW_IDS), minimum + 1))


class FlowState(Enum):
    """Lifecycle of a flow inside the flow-level engine."""

    PENDING = "pending"  # created, start event not fired yet
    ACTIVE = "active"  # routed; transmitting (delivered or not)
    BLOCKED = "blocked"  # no usable rules; waiting for the control plane
    COMPLETED = "completed"  # finite volume fully drained
    ENDED = "ended"  # continuous flow reached its end time


class Terminal(Enum):
    """How far a routed flow got through the data plane."""

    DELIVERED = "delivered"  # reached its destination host
    BLACKHOLED = "blackholed"  # explicit Drop action (policy)
    NO_MATCH = "no_match"  # table miss with no controller punt
    LOOPED = "looped"  # hop-count guard fired
    NO_ROUTE = "no_route"  # dead port / down link on the rule path
    METER_BLOCKED = "meter_blocked"  # meter rate is zero-effective


@dataclass
class FlowRoute:
    """The data-plane walk taken by a flow (possibly branched by flood).

    Attributes
    ----------
    directions:
        Every link direction the aggregate crosses, access links included.
        Flood branches all contribute; the max-min solver constrains the
        flow by each of them (a replicated aggregate loads every branch).
    switch_hops:
        (dpid, in_port, out_ports) per pipeline traversal, for debugging
        and rule-count accounting.
    terminal:
        The most favourable outcome across branches (delivery wins).
    meter_ids:
        (dpid, meter_id) pairs traversed, used to clamp the flow's demand.
    """

    directions: List[LinkDirection] = field(default_factory=list)
    switch_hops: List[Tuple[int, int, Tuple[int, ...]]] = field(default_factory=list)
    terminal: Terminal = Terminal.NO_MATCH
    meter_ids: List[Tuple[int, int]] = field(default_factory=list)
    punted: bool = False  # a ToController fired somewhere along the walk
    #: FlowEntry objects matched along the walk (for counter accrual).
    entries: list = field(default_factory=list)
    #: (Group, bucket_index) pairs taken (for bucket counter accrual).
    group_hits: list = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return self.terminal is Terminal.DELIVERED


@dataclass
class Flow:
    """One traffic aggregate.

    Exactly one of ``size_bytes`` (finite volume) or ``duration_s``
    (continuous for a period; None means until stopped) describes the
    flow's extent.

    Examples
    --------
    >>> from repro.openflow.headers import tcp_flow
    >>> from repro.net import IPv4Address
    >>> hdr = tcp_flow(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 1000, 80)
    >>> f = Flow(headers=hdr, src="h1", dst="h2", demand_bps=1e6, size_bytes=125000)
    >>> f.remaining_bytes
    125000.0
    """

    headers: HeaderFields
    src: str
    dst: str
    demand_bps: float
    size_bytes: Optional[int] = None
    duration_s: Optional[float] = None
    start_time: float = 0.0
    #: Elastic flows (TCP-like) send at their allocated rate; inelastic
    #: flows (UDP-like) keep offering ``demand_bps`` and the excess over
    #: the allocation is accounted as dropped.
    elastic: bool = True
    #: Fairness weight for weighted max-min sharing (QoS classes): under
    #: contention a weight-2 flow gets twice the rate of a weight-1 flow
    #: on the same bottleneck.
    weight: float = 1.0
    flow_id: int = field(default_factory=lambda: next(_FLOW_IDS))

    # --- engine-managed state ---
    state: FlowState = FlowState.PENDING
    route: Optional[FlowRoute] = None
    rate_bps: float = 0.0  # current max-min allocation
    bytes_sent: float = 0.0
    bytes_delivered: float = 0.0
    bytes_dropped: float = 0.0
    end_time: Optional[float] = None  # completion/end timestamp
    reroutes: int = 0

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN fails it too.
        if not self.demand_bps > 0:
            raise ValueError(f"flow demand must be > 0, got {self.demand_bps}")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError(f"flow size must be > 0, got {self.size_bytes}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(f"flow duration must be > 0, got {self.duration_s}")
        if self.size_bytes is not None and self.duration_s is not None:
            raise ValueError("a flow is either volume-based or duration-based")
        if not self.weight > 0:
            raise ValueError(f"flow weight must be > 0, got {self.weight}")

    @property
    def remaining_bytes(self) -> Optional[float]:
        """Bytes left to send for volume flows, None for continuous."""
        if self.size_bytes is None:
            return None
        return max(0.0, self.size_bytes - self.bytes_sent)

    @property
    def finished(self) -> bool:
        return self.state in (FlowState.COMPLETED, FlowState.ENDED)

    @property
    def transmitting(self) -> bool:
        """True while the flow offers traffic to the network."""
        return self.state is FlowState.ACTIVE

    @property
    def delivered(self) -> bool:
        return bool(self.route and self.route.delivered)

    @property
    def flow_completion_time(self) -> Optional[float]:
        """FCT for finished volume flows, else None."""
        if self.state is FlowState.COMPLETED and self.end_time is not None:
            return self.end_time - self.start_time
        return None

    def projected_completion(self, now: float) -> Optional[float]:
        """When the remaining volume drains at the current rate, or None
        (continuous flow / zero rate)."""
        remaining = self.remaining_bytes
        if remaining is None:
            return None
        if remaining == 0:
            return now
        if self.rate_bps <= 0:
            return None
        return now + remaining * 8.0 / self.rate_bps

    def __repr__(self) -> str:
        extent = (
            f"size={self.size_bytes}B"
            if self.size_bytes is not None
            else f"dur={self.duration_s}s"
        )
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} "
            f"demand={self.demand_bps / 1e6:.3g}Mbps {extent} {self.state.value}>"
        )
