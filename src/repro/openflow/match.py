"""OpenFlow match fields with wildcards and IPv4 prefixes.

A :class:`Match` tests a :class:`~repro.openflow.headers.HeaderFields`
tuple plus the ingress port.  Unset fields are wildcards.  IPv4 source
and destination accept either exact addresses or :class:`IPv4Network`
prefixes.  Matches also support a partial order (:meth:`subsumes`) used
by rule deletion with strict/loose semantics and by the policy
validator's conflict detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Any, Optional, Tuple, Union

from ..net.address import IPv4Address, IPv4Network, MacAddress
from .headers import HeaderFields

IpMatch = Union[IPv4Address, IPv4Network]

_HEADER_FIELD_NAMES = tuple(f.name for f in dc_fields(HeaderFields))
#: The match fields proper, in declaration order.
_FIELD_NAMES = ("in_port",) + _HEADER_FIELD_NAMES


def _ip_field_matches(pattern: Optional[IpMatch], value: Optional[IPv4Address]) -> bool:
    if pattern is None:
        return True
    if value is None:
        return False
    if isinstance(pattern, IPv4Network):
        return pattern.contains(value)
    return pattern == value


def _ip_field_subsumes(outer: Optional[IpMatch], inner: Optional[IpMatch]) -> bool:
    """True when every address accepted by ``inner`` is accepted by ``outer``."""
    if outer is None:
        return True
    if inner is None:
        return False
    if isinstance(outer, IPv4Address):
        if isinstance(inner, IPv4Address):
            return outer == inner
        return inner.prefix_len == 32 and outer == inner.network
    # outer is a network
    if isinstance(inner, IPv4Address):
        return outer.contains(inner)
    return outer.prefix_len <= inner.prefix_len and outer.contains(inner.network)


def _ip_field_overlaps(a: Optional[IpMatch], b: Optional[IpMatch]) -> bool:
    """True when some address is accepted by both patterns."""
    if a is None or b is None:
        return True
    return _ip_field_subsumes(a, b) or _ip_field_subsumes(b, a)


@dataclass(frozen=True, slots=True)
class Match:
    """A wildcard-capable predicate over header fields and ingress port.

    Examples
    --------
    >>> from repro.net import IPv4Address, IPv4Network
    >>> m = Match(ip_dst=IPv4Network("10.0.0.0/8"), tp_dst=80)
    >>> from repro.openflow.headers import HeaderFields, EthType, IpProto
    >>> hdr = HeaderFields(eth_type=EthType.IPV4, ip_dst=IPv4Address("10.1.2.3"),
    ...                    ip_proto=IpProto.TCP, tp_dst=80)
    >>> m.matches(hdr)
    True
    """

    in_port: Optional[int] = None
    eth_src: Optional[MacAddress] = None
    eth_dst: Optional[MacAddress] = None
    eth_type: Optional[int] = None
    vlan_vid: Optional[int] = None
    ip_src: Optional[IpMatch] = None
    ip_dst: Optional[IpMatch] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    #: Header fields this match sets, in declaration order (``in_port``
    #: is a property of the ingress, not of the headers).  Compiled once
    #: at construction, like ``_exact``: the (name, pattern) pairs
    #: :meth:`matches` compares by equality.  Neither takes part in
    #: construction, equality, hashing or the repr.  (The class is
    #: slotted so that the two do not grow every rule's footprint: a
    #: reactive controller writes a match per flow.)
    referenced_fields: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    _exact: Tuple[Tuple[str, Any], ...] = field(init=False, repr=False, compare=False)

    _EXACT_FIELDS = (
        "eth_src",
        "eth_dst",
        "eth_type",
        "vlan_vid",
        "ip_proto",
        "tp_src",
        "tp_dst",
    )

    def __post_init__(self) -> None:
        values = [(name, getattr(self, name)) for name in _HEADER_FIELD_NAMES]
        object.__setattr__(
            self,
            "referenced_fields",
            tuple(name for name, value in values if value is not None),
        )
        object.__setattr__(
            self,
            "_exact",
            tuple(
                (name, value)
                for name, value in values
                if value is not None and name in self._EXACT_FIELDS
            ),
        )

    def matches(self, headers: HeaderFields, in_port: Optional[int] = None) -> bool:
        """Test header fields (and optionally the ingress port)."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        for name, pattern in self._exact:
            if pattern != getattr(headers, name):
                return False
        pattern = self.ip_src
        if pattern is not None and not _ip_field_matches(pattern, headers.ip_src):
            return False
        pattern = self.ip_dst
        if pattern is not None and not _ip_field_matches(pattern, headers.ip_dst):
            return False
        return True

    def subsumes(self, other: "Match") -> bool:
        """True when every header set matched by ``other`` is matched by
        this match (this is a superset pattern)."""
        if self.in_port is not None and self.in_port != other.in_port:
            return False
        for name in self._EXACT_FIELDS:
            mine = getattr(self, name)
            if mine is not None and mine != getattr(other, name):
                return False
        return _ip_field_subsumes(self.ip_src, other.ip_src) and _ip_field_subsumes(
            self.ip_dst, other.ip_dst
        )

    def overlaps(self, other: "Match") -> bool:
        """True when some header set is matched by both matches.

        Conservative and exact for this field model: exact-match fields
        overlap iff equal-or-wildcard; prefix fields via prefix overlap.
        """
        if (
            self.in_port is not None
            and other.in_port is not None
            and self.in_port != other.in_port
        ):
            return False
        for name in self._EXACT_FIELDS:
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if mine is not None and theirs is not None and mine != theirs:
                return False
        return _ip_field_overlaps(self.ip_src, other.ip_src) and _ip_field_overlaps(
            self.ip_dst, other.ip_dst
        )

    @property
    def wildcard_count(self) -> int:
        """Number of unset fields; higher means a coarser match."""
        return sum(1 for name in _FIELD_NAMES if getattr(self, name) is None)

    @property
    def is_wildcard_all(self) -> bool:
        return self.in_port is None and not self.referenced_fields

    def describe(self) -> str:
        """Compact human-readable rendering of set fields."""
        parts = []
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value is not None:
                if name == "eth_type":
                    parts.append(f"{name}=0x{value:04x}")
                else:
                    parts.append(f"{name}={value}")
        return " ".join(parts) if parts else "(match-all)"

    def __repr__(self) -> str:
        return f"Match({self.describe()})"


def match_all() -> Match:
    """The all-wildcard match (lowest-priority table-miss rules)."""
    return Match()


def exact_match_for(headers: HeaderFields, in_port: Optional[int] = None) -> Match:
    """Build the exact match covering precisely one header tuple.

    Used by reactive apps installing per-flow microflow rules.
    """
    return Match(
        in_port=in_port,
        eth_src=headers.eth_src,
        eth_dst=headers.eth_dst,
        eth_type=headers.eth_type,
        vlan_vid=headers.vlan_vid,
        ip_src=headers.ip_src,
        ip_dst=headers.ip_dst,
        ip_proto=headers.ip_proto,
        tp_src=headers.tp_src,
        tp_dst=headers.tp_dst,
    )
