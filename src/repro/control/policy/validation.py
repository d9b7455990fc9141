"""Policy validation: per-spec checks and composition conflicts.

The poster: "The policy generator will only make basic policy validation
of policy composition."  Implemented here as two layers:

* :func:`validate_spec` — field-level checks against a topology
  (hosts exist, rates positive, paths contiguous, apps known).
* :func:`validate_composition` — cross-spec checks (one base forwarding
  policy, blackholes that swallow other policies' traffic, duplicate
  limits), returning structured :class:`Conflict` records.

Rule-level checking (same-priority overlaps, cross-priority shadowing)
lives in :mod:`repro.analysis.rules`.  For full data-plane
verification — loops, blackholes, reachability — see
:mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ...errors import PolicyConflictError, PolicyValidationError
from ...net.address import AddressError, IPv4Address, IPv4Network, MacAddress
from ...net.topology import Topology
from ..apps.app_peering import app_port
from .spec import (
    AppPeeringSpec,
    BlackholingSpec,
    ForwardingSpec,
    LoadBalancingSpec,
    PolicySpec,
    RateLimitingSpec,
    SourceRoutingSpec,
)


@dataclass(frozen=True)
class Conflict:
    """One detected composition conflict."""

    severity: str  # 'error' | 'warning'
    message: str
    specs: tuple

    def __str__(self) -> str:
        return f"[{self.severity}] {self.message}"


def _parse_target(target: str, topology: Optional[Topology]):
    """Resolve a blackhole target string to an address object."""
    if topology is not None and target in topology:
        return topology.host(target).ip
    for parser in (IPv4Network, IPv4Address, MacAddress):
        try:
            return parser(target)
        except AddressError:
            continue
    raise PolicyValidationError(f"cannot resolve blackhole target {target!r}")


def validate_spec(spec: PolicySpec, topology: Optional[Topology] = None) -> None:
    """Raise :class:`PolicyValidationError` on a malformed spec."""
    if isinstance(spec, ForwardingSpec):
        if spec.mode not in ("learning", "shortest-path"):
            raise PolicyValidationError(
                f"forwarding mode must be learning/shortest-path, got {spec.mode!r}"
            )
        if spec.match_on not in ("eth_dst", "ip_dst"):
            raise PolicyValidationError(
                f"forwarding match_on must be eth_dst/ip_dst, got {spec.match_on!r}"
            )
    elif isinstance(spec, LoadBalancingSpec):
        if spec.mode not in ("ecmp", "reactive"):
            raise PolicyValidationError(
                f"load balancing mode must be ecmp/reactive, got {spec.mode!r}"
            )
        if not 0 < spec.threshold <= 1:
            raise PolicyValidationError(
                f"load balancing threshold must be in (0,1], got {spec.threshold}"
            )
    elif isinstance(spec, AppPeeringSpec):
        try:
            app_port(spec.app)
        except Exception as exc:
            raise PolicyValidationError(str(exc)) from None
        _require_hosts(topology, spec.src, spec.dst)
        if spec.path is not None:
            _require_path(topology, spec.path, spec.src, spec.dst)
    elif isinstance(spec, RateLimitingSpec):
        if not spec.rate_bps > 0:
            raise PolicyValidationError(
                f"rate limit must be > 0 bps, got {spec.rate_bps}"
            )
        if spec.src:
            _require_hosts(topology, spec.src)
        if spec.dst:
            _require_hosts(topology, spec.dst)
    elif isinstance(spec, BlackholingSpec):
        if spec.direction not in ("src", "dst", "both"):
            raise PolicyValidationError(
                f"blackhole direction must be src/dst/both, got {spec.direction!r}"
            )
        _parse_target(spec.target, topology)
    elif isinstance(spec, SourceRoutingSpec):
        _require_hosts(topology, spec.src, spec.dst)
        _require_path(topology, spec.path, spec.src, spec.dst)
    else:
        raise PolicyValidationError(f"unknown policy spec type {type(spec).__name__}")


def _require_hosts(topology: Optional[Topology], *names: str) -> None:
    if topology is None:
        return
    for name in names:
        topology.host(name)  # raises NodeNotFoundError/TopologyError


def _require_path(
    topology: Optional[Topology], path: Sequence[str], src: str, dst: str
) -> None:
    if len(path) < 3:
        raise PolicyValidationError(f"path must include a switch: {list(path)}")
    if path[0] != src or path[-1] != dst:
        raise PolicyValidationError(
            f"path {list(path)} does not connect {src} -> {dst}"
        )
    if topology is None:
        return
    for a, b in zip(path, path[1:]):
        if not topology.links_between(a, b):
            raise PolicyValidationError(f"path hop {a} -> {b} has no link")


def validate_composition(
    specs: Sequence[PolicySpec], topology: Optional[Topology] = None
) -> List[Conflict]:
    """Check a policy set for composition conflicts.

    Returns the conflicts found (possibly empty).  Use
    :func:`validate_or_raise` to turn errors into exceptions.
    """
    conflicts: List[Conflict] = []
    forwarding = [
        s for s in specs if isinstance(s, (ForwardingSpec, LoadBalancingSpec))
    ]
    if len([s for s in forwarding if isinstance(s, ForwardingSpec)]) > 1:
        conflicts.append(
            Conflict(
                "error",
                "multiple base forwarding policies",
                tuple(s for s in forwarding if isinstance(s, ForwardingSpec)),
            )
        )
    learning = [
        s for s in specs if isinstance(s, ForwardingSpec) and s.mode == "learning"
    ]
    lb = [s for s in specs if isinstance(s, LoadBalancingSpec)]
    if learning and lb:
        conflicts.append(
            Conflict(
                "error",
                "learning forwarding cannot compose with load balancing "
                "(reactive MAC rules bypass the multipath groups)",
                (learning[0], lb[0]),
            )
        )

    # Blackholes swallowing other policies' traffic.
    blackholes = [s for s in specs if isinstance(s, BlackholingSpec)]
    steering = [
        s for s in specs if isinstance(s, (AppPeeringSpec, SourceRoutingSpec))
    ]
    for hole in blackholes:
        try:
            target = _parse_target(hole.target, topology)
        except PolicyValidationError:
            # Unresolvable targets would previously vanish from the
            # swallow check entirely; surface them so the caller knows
            # this hole was not cross-checked against steering policies.
            conflicts.append(
                Conflict(
                    "warning",
                    f"cannot resolve blackhole target {hole.target!r}; "
                    "skipping composition checks for it",
                    (hole,),
                )
            )
            continue
        for steer in steering:
            if topology is None:
                continue
            victim_names = []
            if hole.direction in ("dst", "both"):
                victim_names.append(steer.dst)
            if hole.direction in ("src", "both"):
                victim_names.append(steer.src)
            for name in victim_names:
                try:
                    host_ip = topology.host(name).ip
                except Exception:
                    continue
                covered = (
                    target.contains(host_ip)
                    if isinstance(target, IPv4Network)
                    else target == host_ip
                )
                if covered:
                    conflicts.append(
                        Conflict(
                            "warning",
                            f"blackhole on {hole.target} swallows traffic "
                            f"steered by {steer.kind} "
                            f"{steer.src}->{steer.dst}",
                            (hole, steer),
                        )
                    )

    # Duplicate rate limits for the same pair: ambiguous intent.
    seen_limits = {}
    for spec in specs:
        if isinstance(spec, RateLimitingSpec):
            key = (spec.src, spec.dst)
            if key in seen_limits and seen_limits[key].rate_bps != spec.rate_bps:
                conflicts.append(
                    Conflict(
                        "error",
                        f"conflicting rate limits for {key}: "
                        f"{seen_limits[key].rate_bps} vs {spec.rate_bps} bps",
                        (seen_limits[key], spec),
                    )
                )
            seen_limits[key] = spec

    # Duplicate source routes for the same pair with different paths.
    seen_routes = {}
    for spec in specs:
        if isinstance(spec, SourceRoutingSpec):
            key = (spec.src, spec.dst)
            if key in seen_routes and tuple(seen_routes[key].path) != tuple(spec.path):
                conflicts.append(
                    Conflict(
                        "error",
                        f"conflicting source routes for {key}",
                        (seen_routes[key], spec),
                    )
                )
            seen_routes[key] = spec
    return conflicts


def validate_or_raise(
    specs: Sequence[PolicySpec], topology: Optional[Topology] = None
) -> List[Conflict]:
    """Validate specs and composition; raise on any error-severity
    conflict, returning surviving warnings."""
    for spec in specs:
        validate_spec(spec, topology)
    conflicts = validate_composition(specs, topology)
    errors = [c for c in conflicts if c.severity == "error"]
    if errors:
        raise PolicyConflictError(
            "; ".join(str(c) for c in errors)
        )
    return conflicts
