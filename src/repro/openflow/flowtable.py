"""Priority flow tables with timeouts and counters.

Each :class:`FlowTable` holds :class:`FlowEntry` rules ordered by
priority.  Lookup returns the highest-priority matching entry; it is a
hash probe per match *shape* present in the table (tuple-space search),
not a scan of the entries.  Tables enforce an optional size cap and
support OpenFlow add/modify/delete semantics including overlap checking
and strict/loose deletion.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import TableFullError
from ..net.address import IPv4Network
from .action import Instruction
from .headers import HeaderFields
from .match import Match

_ENTRY_SEQ = itertools.count()


def reset_entry_seq() -> None:
    """Rewind the process-global entry-sequence counter to its
    import-time state (sweep workers isolate jobs this way)."""
    global _ENTRY_SEQ
    _ENTRY_SEQ = itertools.count()


def advance_entry_seq(minimum: int) -> None:
    """Ensure future entry sequence numbers are > ``minimum``
    (checkpoint restore advances past the snapshot's watermark)."""
    global _ENTRY_SEQ
    _ENTRY_SEQ = itertools.count(max(next(_ENTRY_SEQ), minimum + 1))


@dataclass
class FlowEntry:
    """One rule: a match, a priority, and instructions, plus counters.

    Attributes
    ----------
    idle_timeout:
        Seconds of no traffic after which the entry expires (0 = never).
    hard_timeout:
        Seconds after installation at which the entry expires (0 = never).
    cookie:
        Opaque controller tag; policies stamp their rules with a cookie so
        they can bulk-delete or attribute counters.
    """

    match: Match
    priority: int = 0
    instructions: Tuple[Instruction, ...] = ()
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    install_time: float = 0.0
    last_used: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    _seq: int = field(default_factory=lambda: next(_ENTRY_SEQ))

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)
        if self.idle_timeout < 0 or self.hard_timeout < 0:
            raise ValueError("timeouts must be >= 0")
        self.last_used = self.install_time

    def account(self, byte_count: int, packet_count: int = 1, now: float = 0.0) -> None:
        """Charge traffic against this entry's counters."""
        self.packet_count += packet_count
        self.byte_count += byte_count
        if now > self.last_used:
            self.last_used = now

    def expired(self, now: float) -> Optional[str]:
        """Return 'idle'/'hard' if the entry has timed out, else None."""
        if self.hard_timeout > 0 and now >= self.install_time + self.hard_timeout:
            return "hard"
        if self.idle_timeout > 0 and now >= self.last_used + self.idle_timeout:
            return "idle"
        return None

    @property
    def seq(self) -> int:
        """Process-global insertion sequence number (tie-break order)."""
        return self._seq

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Descending priority, then insertion order."""
        return (-self.priority, self._seq)

    def __repr__(self) -> str:
        return (
            f"<FlowEntry prio={self.priority} {self.match.describe()} "
            f"instrs={list(self.instructions)}>"
        )


_SORT_KEY = attrgetter("sort_key")

#: ``ip_src`` / ``ip_dst`` patterns carry a mask; every other header
#: field is compared whole.
_PREFIX_FIELDS = ("ip_src", "ip_dst")
_HOST_MASK = (1 << 32) - 1


def _masked(pattern) -> Tuple[Optional[int], Optional[int]]:
    """(mask, masked value) of an ``ip_src`` / ``ip_dst`` pattern: the
    prefix's own mask, ``/32`` for an exact address, nothing when unset."""
    if pattern is None:
        return None, None
    if isinstance(pattern, IPv4Network):
        return pattern.mask, pattern.network.value
    return _HOST_MASK, pattern.value


def _slot(match: Match) -> Tuple[tuple, Hashable]:
    """Where a match lives in a table's lookup index: its shape - the
    whole-value fields it sets, whether it sets ``in_port``, its
    ``ip_src`` / ``ip_dst`` masks - and its key inside that shape, the
    values themselves.  Two matches share a slot iff they accept the
    same headers."""
    whole = tuple(
        name for name in match.referenced_fields if name not in _PREFIX_FIELDS
    )
    src_mask, src = _masked(match.ip_src)
    dst_mask, dst = _masked(match.ip_dst)
    uses_port = match.in_port is not None
    # A match names its fields as the headers do: lookup reads the key
    # off the headers with the same getter.
    key: Hashable = attrgetter(*whole)(match) if whole else None
    if uses_port or src_mask is not None or dst_mask is not None:
        key = (key, match.in_port, src, dst)
    return (whole, uses_port, src_mask, dst_mask), key


class _Shape(NamedTuple):
    """The entries of one match shape (see :func:`_slot`)."""

    #: Whole-value fields only: the getter's result is the key.
    plain: bool
    #: Reads the whole-value fields off headers or a match; None if none.
    whole: Optional[Callable]
    uses_port: bool
    src_mask: Optional[int]
    dst_mask: Optional[int]
    #: key -> the entries matching on it, in ``sort_key`` order.
    buckets: Dict[Hashable, List[FlowEntry]]


def unobserved() -> None:
    """The change listener of a table no pipeline owns."""


class FlowTable:
    """A single numbered table of priority-ordered flow entries.

    The entries are held twice.  ``_entries`` is the ordered view
    (``sort_key`` order) that iteration, expiry, deletion, stats and the
    analyzer read.  ``_shapes`` is what :meth:`lookup` reads, a
    tuple-space index: entries grouped by the *shape* of their match
    (:func:`_slot`) and, inside a shape, by the values matched on, each
    bucket in ``sort_key`` order.  Every match the model can express has
    a shape, so :meth:`lookup` never falls back to a scan: it costs one
    hash probe per shape present (one or two in practice: a table-miss
    rule plus the rules a policy writes), not one comparison per entry.
    ``add``, ``delete``, ``expire`` and ``clear`` keep the two views, and
    :attr:`referenced_fields`, in step, and every mutation that can
    change a lookup result calls ``on_change`` (the owning pipeline's
    version bump).
    """

    def __init__(
        self,
        table_id: int = 0,
        max_size: Optional[int] = None,
        on_change: Callable[[], None] = unobserved,
    ) -> None:
        if table_id < 0:
            raise ValueError(f"table_id must be >= 0, got {table_id}")
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.table_id = table_id
        self.max_size = max_size
        self._entries: List[FlowEntry] = []
        #: By shape id.  No bucket and no shape is ever left empty.
        self._shapes: Dict[tuple, _Shape] = {}
        #: Cumulative lookup statistics (OpenFlow table-stats).
        self.lookup_count = 0
        self.matched_count = 0
        #: Header field -> number of live entries whose match sets it
        #: (``in_port`` is not a header field).  Read-only for callers.
        self.referenced_fields: Dict[str, int] = {}
        self._on_change = on_change

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, headers: HeaderFields, in_port: Optional[int] = None
    ) -> Optional[FlowEntry]:
        """Highest-priority entry matching the headers, or None (miss):
        the entry a scan of the table in order would reach first.

        Does not touch per-entry counters; the pipeline accounts traffic
        explicitly, because a flow-level "lookup" may represent many
        packets.
        """
        self.lookup_count += 1
        best: Optional[FlowEntry] = None
        for plain, whole, uses_port, src_mask, dst_mask, buckets in self._shapes.values():
            # A header field (or an ingress) that is None equals no
            # pattern: it makes a key no entry has.
            key = None if whole is None else whole(headers)
            if not plain:
                # A prefix cannot match an absent address.
                src = dst = None
                if src_mask is not None:
                    if headers.ip_src is None:
                        continue
                    src = headers.ip_src.value & src_mask
                if dst_mask is not None:
                    if headers.ip_dst is None:
                        continue
                    dst = headers.ip_dst.value & dst_mask
                key = (key, in_port if uses_port else None, src, dst)
            bucket = buckets.get(key)
            # Every entry of a bucket matches and its head is its best;
            # across shapes the best is again the least sort_key, not
            # the first shape to hit.
            if bucket is not None and (
                best is None or bucket[0].sort_key < best.sort_key
            ):
                best = bucket[0]
        if best is not None:
            self.matched_count += 1
        return best

    def _index(self, entry: FlowEntry, shape_id: tuple, key: Hashable) -> None:
        """Enter an installed entry into the lookup index at its slot."""
        shape = self._shapes.get(shape_id)
        if shape is None:
            whole, uses_port, src_mask, dst_mask = shape_id
            shape = self._shapes[shape_id] = _Shape(
                not uses_port and src_mask is None and dst_mask is None,
                attrgetter(*whole) if whole else None,
                uses_port, src_mask, dst_mask, {},
            )
        insort(shape.buckets.setdefault(key, []), entry, key=_SORT_KEY)
        fields = self.referenced_fields
        for name in entry.match.referenced_fields:
            fields[name] = fields.get(name, 0) + 1

    def _unindex(self, entry: FlowEntry) -> None:
        """Take a removed entry out of the lookup index."""
        fields = self.referenced_fields
        for name in entry.match.referenced_fields:
            if fields[name] == 1:
                del fields[name]
            else:
                fields[name] -= 1
        shape_id, key = _slot(entry.match)
        buckets = self._shapes[shape_id].buckets
        bucket = buckets[key]
        # By identity: ``list.remove`` would compare the entries passed
        # over field by field.
        del bucket[next(i for i, held in enumerate(bucket) if held is entry)]
        if not bucket:
            del buckets[key]
            if not buckets:
                del self._shapes[shape_id]

    # ------------------------------------------------------------------
    # Mutation (FlowMod semantics)
    # ------------------------------------------------------------------
    def add(self, entry: FlowEntry, check_overlap: bool = False) -> FlowEntry:
        """Install an entry.

        An entry with an identical match and priority replaces the old
        one (OpenFlow ADD semantics, counters reset).  With
        ``check_overlap``, raises on any overlapping same-priority entry.
        """
        if check_overlap:
            for existing in self._entries:
                if (
                    existing.priority == entry.priority
                    and existing.match != entry.match
                    and existing.match.overlaps(entry.match)
                ):
                    raise TableFullError(
                        f"overlap check failed: {entry.match.describe()} overlaps "
                        f"{existing.match.describe()} at priority {entry.priority}"
                    )
        shape_id, key = _slot(entry.match)
        # An identical match can only be in the new entry's own bucket.
        shape = self._shapes.get(shape_id)
        for existing in shape.buckets.get(key, ()) if shape is not None else ():
            if existing.priority == entry.priority and existing.match == entry.match:
                # The replacement carries its own seq: it leaves the old
                # entry's position for the one its sort key gives it.
                del self._entries[
                    bisect_left(self._entries, existing.sort_key, key=_SORT_KEY)
                ]
                self._unindex(existing)
                break
        else:
            if self.max_size is not None and len(self._entries) >= self.max_size:
                raise TableFullError(
                    f"table {self.table_id} full ({self.max_size} entries)"
                )
        insort(self._entries, entry, key=_SORT_KEY)
        self._index(entry, shape_id, key)
        self._on_change()
        return entry

    def modify(
        self,
        match: Match,
        instructions: Sequence[Instruction],
        priority: Optional[int] = None,
        strict: bool = False,
    ) -> List[FlowEntry]:
        """Rewrite instructions of matching entries (counters preserved).

        Strict mode requires an exact match+priority equality; loose mode
        touches every entry whose match is subsumed by ``match``.
        """
        touched = []
        for entry in self._entries:
            if self._selected(entry, match, priority, strict):
                entry.instructions = tuple(instructions)
                touched.append(entry)
        if touched:
            self._on_change()
        return touched

    def delete(
        self,
        match: Match,
        priority: Optional[int] = None,
        strict: bool = False,
        cookie: Optional[int] = None,
    ) -> List[FlowEntry]:
        """Remove matching entries and return them (for FlowRemoved)."""
        removed = []
        kept = []
        for entry in self._entries:
            if cookie is not None and entry.cookie != cookie:
                kept.append(entry)
            elif self._selected(entry, match, priority, strict):
                removed.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        for entry in removed:
            self._unindex(entry)
        if removed:
            self._on_change()
        return removed

    @staticmethod
    def _selected(
        entry: FlowEntry, match: Match, priority: Optional[int], strict: bool
    ) -> bool:
        if strict:
            return entry.match == match and (
                priority is None or entry.priority == priority
            )
        return match.subsumes(entry.match)

    def expire(self, now: float) -> List[Tuple[FlowEntry, str]]:
        """Remove timed-out entries; returns (entry, reason) pairs."""
        expired: List[Tuple[FlowEntry, str]] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            reason = entry.expired(now)
            if reason is None:
                kept.append(entry)
            else:
                expired.append((entry, reason))
        self._entries = kept
        for entry, _ in expired:
            self._unindex(entry)
        if expired:
            self._on_change()
        return expired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[FlowEntry]:
        """Entries in match order (highest priority first)."""
        return list(self._entries)

    def entries_by_cookie(self, cookie: int) -> List[FlowEntry]:
        return [e for e in self._entries if e.cookie == cookie]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def clear(self) -> None:
        if self._entries:
            self._on_change()
        self._entries.clear()
        self._shapes.clear()
        self.referenced_fields.clear()

    def stats(self) -> dict:
        """OpenFlow table-stats shaped snapshot."""
        return {
            "table_id": self.table_id,
            "active_count": len(self._entries),
            "lookup_count": self.lookup_count,
            "matched_count": self.matched_count,
        }

    def __repr__(self) -> str:
        return f"<FlowTable {self.table_id} entries={len(self._entries)}>"
