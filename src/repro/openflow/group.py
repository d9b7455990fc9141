"""Group tables: ALL, SELECT, INDIRECT, and fast-failover groups.

Groups give policies a level of indirection over action lists — the
load-balancing policies hash flows across SELECT buckets (ECMP/WCMP),
and fast-failover groups switch to a live bucket when a watched port
goes down.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import GroupError
from .action import Action
from .flowtable import unobserved
from .headers import HeaderFields


class GroupType(Enum):
    """OpenFlow group types."""

    ALL = "all"
    SELECT = "select"
    INDIRECT = "indirect"
    FAST_FAILOVER = "ff"


@dataclass(frozen=True)
class Bucket:
    """One weighted action list inside a group.

    ``watch_port`` applies to fast-failover groups: the bucket is live
    only while that port is up.
    """

    actions: Tuple[Action, ...]
    weight: int = 1
    watch_port: Optional[int] = None

    def __init__(
        self,
        actions: Sequence[Action],
        weight: int = 1,
        watch_port: Optional[int] = None,
    ) -> None:
        if weight < 0:
            raise GroupError(f"bucket weight must be >= 0, got {weight}")
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "watch_port", watch_port)


def flow_hash(headers: HeaderFields) -> int:
    """A stable hash of the flow's header tuple.

    Uses CRC32 over the describe() rendering so the value is identical
    across processes and runs (Python's builtin ``hash`` is salted).
    """
    return zlib.crc32(headers.describe().encode())


class Group:
    """A group entry: a type plus its buckets."""

    def __init__(
        self, group_id: int, group_type: GroupType, buckets: Sequence[Bucket]
    ) -> None:
        if group_id < 0:
            raise GroupError(f"group_id must be >= 0, got {group_id}")
        if not buckets:
            raise GroupError(f"group {group_id} must have at least one bucket")
        if group_type is GroupType.INDIRECT and len(buckets) != 1:
            raise GroupError("INDIRECT groups must have exactly one bucket")
        if group_type is GroupType.SELECT and all(b.weight == 0 for b in buckets):
            raise GroupError("SELECT group needs at least one bucket with weight > 0")
        self.group_id = group_id
        self.group_type = group_type
        self.buckets: List[Bucket] = list(buckets)
        #: Per-bucket byte counters, indexed like ``buckets``.
        self.bucket_bytes: List[int] = [0] * len(buckets)
        self.ref_count = 0

    def select_buckets(
        self,
        headers: HeaderFields,
        port_up: Optional[Callable[[int], bool]] = None,
    ) -> List[Tuple[int, Bucket]]:
        """The (index, bucket) list to execute for this traffic.

        * ALL → every bucket.
        * SELECT → one bucket chosen by weighted flow hash.
        * INDIRECT → the single bucket.
        * FAST_FAILOVER → the first live bucket (watch_port up), or none.
        """
        if self.group_type is GroupType.ALL:
            return list(enumerate(self.buckets))
        if self.group_type is GroupType.INDIRECT:
            return [(0, self.buckets[0])]
        if self.group_type is GroupType.SELECT:
            index = self._weighted_choice(flow_hash(headers))
            return [(index, self.buckets[index])]
        # FAST_FAILOVER
        for i, bucket in enumerate(self.buckets):
            if bucket.watch_port is None:
                return [(i, bucket)]
            if port_up is None or port_up(bucket.watch_port):
                return [(i, bucket)]
        return []

    def _weighted_choice(self, hash_value: int) -> int:
        total = sum(b.weight for b in self.buckets)
        point = hash_value % total
        cumulative = 0
        for i, bucket in enumerate(self.buckets):
            cumulative += bucket.weight
            if point < cumulative:
                return i
        return len(self.buckets) - 1  # pragma: no cover - unreachable

    def account(self, bucket_index: int, byte_count: int) -> None:
        """Charge traffic to a bucket counter."""
        self.bucket_bytes[bucket_index] += byte_count

    def __repr__(self) -> str:
        return (
            f"<Group {self.group_id} {self.group_type.value} "
            f"buckets={len(self.buckets)}>"
        )


class GroupTable:
    """The per-switch registry of groups."""

    def __init__(self, on_change: Callable[[], None] = unobserved) -> None:
        self._groups: Dict[int, Group] = {}
        #: Called on every mutation: the owning pipeline's version bump
        #: (routing caches detect group-mods by it).
        self._on_change = on_change

    def add(
        self, group_id: int, group_type: GroupType, buckets: Sequence[Bucket]
    ) -> Group:
        if group_id in self._groups:
            raise GroupError(f"group {group_id} already exists")
        group = Group(group_id, group_type, buckets)
        self._groups[group_id] = group
        self._on_change()
        return group

    def modify(
        self, group_id: int, group_type: GroupType, buckets: Sequence[Bucket]
    ) -> Group:
        if group_id not in self._groups:
            raise GroupError(f"cannot modify unknown group {group_id}")
        group = Group(group_id, group_type, buckets)
        group.ref_count = self._groups[group_id].ref_count
        self._groups[group_id] = group
        self._on_change()
        return group

    def delete(self, group_id: int) -> Group:
        try:
            group = self._groups.pop(group_id)
        except KeyError:
            raise GroupError(f"cannot delete unknown group {group_id}") from None
        self._on_change()
        return group

    def get(self, group_id: int) -> Group:
        try:
            return self._groups[group_id]
        except KeyError:
            raise GroupError(f"unknown group {group_id}") from None

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def groups(self) -> List[Group]:
        return list(self._groups.values())

    def clear(self) -> None:
        if self._groups:
            self._on_change()
        self._groups.clear()
