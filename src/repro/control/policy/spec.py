"""High-level policy specifications.

The poster's Figure 2 configures the policy generator with entries like::

    "load balancing": "edge->core",
    "application based peering": "e1->e3": "http",
    "rate limiting": "e2->e4": "500 Mbps"

This module defines the typed equivalents of those entries, plus
:func:`parse_policy_config` which accepts the JSON-ish dict form and
:func:`parse_rate` for human-readable rates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ...errors import PolicyValidationError

_RATE_RE = re.compile(
    r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([kmgt]?)(?:bps|bit/s|b/s)?\s*$", re.IGNORECASE
)
_RATE_MULTIPLIERS = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9, "t": 1e12}


def parse_rate(rate: Union[str, float, int]) -> float:
    """Parse '500 Mbps', '1.5Gbps', or a raw bps number into bps.

    Examples
    --------
    >>> parse_rate("500 Mbps")
    500000000.0
    >>> parse_rate(1000)
    1000.0
    """
    if isinstance(rate, (int, float)):
        value = float(rate)
        if not value > 0:  # NaN fails it too
            raise PolicyValidationError(f"rate must be > 0, got {rate}")
        return value
    match = _RATE_RE.match(rate)
    if not match:
        raise PolicyValidationError(f"cannot parse rate {rate!r}")
    return float(match.group(1)) * _RATE_MULTIPLIERS[match.group(2).lower()]


@dataclass(frozen=True)
class PolicySpec:
    """Base class of all policy specs (``kind`` identifies the type)."""

    @property
    def kind(self) -> str:
        return _KIND_BY_TYPE[type(self)]


@dataclass(frozen=True)
class ForwardingSpec(PolicySpec):
    """Base forwarding: 'learning' (reactive MAC) or 'shortest-path'
    (proactive), matching on MACs or IPs."""

    mode: str = "shortest-path"
    match_on: str = "eth_dst"


@dataclass(frozen=True)
class LoadBalancingSpec(PolicySpec):
    """Multipath load balancing.  ``mode``: ecmp | reactive.  Reactive
    re-weights paths when monitored utilization crosses ``threshold``."""

    mode: str = "ecmp"
    match_on: str = "ip_dst"
    threshold: float = 0.8


@dataclass(frozen=True)
class AppPeeringSpec(PolicySpec):
    """Application-based peering: steer ``app`` traffic src->dst over an
    alternative (or explicit) path."""

    src: str = ""
    dst: str = ""
    app: Union[str, int] = "http"
    path: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class RateLimitingSpec(PolicySpec):
    """Cap src->dst traffic at ``rate_bps`` (the 'e2->e4: 500 Mbps'
    policy).  Empty src or dst means any."""

    src: str = ""
    dst: str = ""
    rate_bps: float = 0.0
    scope: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class BlackholingSpec(PolicySpec):
    """Drop traffic to (direction='dst'), from ('src'), or both for a
    target host name, address, or prefix string."""

    target: str = ""
    direction: str = "dst"
    scope: Union[str, Sequence[str]] = "all"


@dataclass(frozen=True)
class SourceRoutingSpec(PolicySpec):
    """Pin src->dst onto an explicit node path."""

    src: str = ""
    dst: str = ""
    path: Sequence[str] = ()


_KIND_BY_TYPE = {
    ForwardingSpec: "forwarding",
    LoadBalancingSpec: "load_balancing",
    AppPeeringSpec: "application_peering",
    RateLimitingSpec: "rate_limiting",
    BlackholingSpec: "blackholing",
    SourceRoutingSpec: "source_routing",
}


def parse_policy_config(config: dict) -> List[PolicySpec]:
    """Parse the JSON-ish policy configuration of the poster's Figure 2.

    Accepted keys: ``forwarding`` (str or dict), ``load_balancing``
    (dict), ``application_peering`` / ``rate_limiting`` /
    ``blackholing`` / ``source_routing`` (lists of dicts).

    Examples
    --------
    >>> specs = parse_policy_config({
    ...     "forwarding": "shortest-path",
    ...     "rate_limiting": [{"src": "h2", "dst": "h4", "rate": "500 Mbps"}],
    ... })
    >>> [s.kind for s in specs]
    ['forwarding', 'rate_limiting']
    """
    specs: List[PolicySpec] = []
    known = {
        "forwarding",
        "load_balancing",
        "application_peering",
        "rate_limiting",
        "blackholing",
        "source_routing",
    }
    unknown = set(config) - known
    if unknown:
        raise PolicyValidationError(f"unknown policy keys: {sorted(unknown)}")

    if "forwarding" in config:
        value = config["forwarding"]
        if isinstance(value, str):
            specs.append(ForwardingSpec(mode=value))
        else:
            specs.append(ForwardingSpec(**value))
    if "load_balancing" in config:
        value = config["load_balancing"]
        if isinstance(value, str):
            specs.append(LoadBalancingSpec(mode=value))
        else:
            specs.append(LoadBalancingSpec(**value))
    for item in config.get("application_peering", ()):
        specs.append(
            AppPeeringSpec(
                src=item["src"],
                dst=item["dst"],
                app=item.get("app", "http"),
                path=tuple(item["path"]) if "path" in item else None,
            )
        )
    for item in config.get("rate_limiting", ()):
        specs.append(
            RateLimitingSpec(
                src=item.get("src", ""),
                dst=item.get("dst", ""),
                rate_bps=parse_rate(item["rate"]),
                scope=tuple(item["scope"]) if "scope" in item else None,
            )
        )
    for item in config.get("blackholing", ()):
        specs.append(
            BlackholingSpec(
                target=item["target"],
                direction=item.get("direction", "dst"),
                scope=(
                    tuple(item["scope"])
                    if isinstance(item.get("scope"), (list, tuple))
                    else item.get("scope", "all")
                ),
            )
        )
    for item in config.get("source_routing", ()):
        specs.append(
            SourceRoutingSpec(
                src=item["src"], dst=item["dst"], path=tuple(item["path"])
            )
        )
    return specs
