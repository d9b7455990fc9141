"""Priority flow tables with timeouts and counters.

Each :class:`FlowTable` holds :class:`FlowEntry` rules ordered by
priority.  Lookup returns the highest-priority matching entry, updating
its counters and idle-timeout clock.  Tables enforce an optional size
cap and support OpenFlow add/modify/delete semantics including overlap
checking and strict/loose deletion.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from ..errors import TableFullError
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


class FlowTable:
    """A single numbered table of priority-ordered flow entries."""

    def __init__(self, table_id: int = 0, max_size: Optional[int] = None) -> None:
        if table_id < 0:
            raise ValueError(f"table_id must be >= 0, got {table_id}")
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.table_id = table_id
        self.max_size = max_size
        self._entries: List[FlowEntry] = []
        #: Cumulative lookup statistics (OpenFlow table-stats).
        self.lookup_count = 0
        self.matched_count = 0
        #: Monotonic generation counter, bumped on every mutation that
        #: can change lookup results.  Caches keyed on a table's version
        #: stay valid exactly as long as its rule set is unchanged.
        self.version = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, headers: HeaderFields, in_port: Optional[int] = None
    ) -> Optional[FlowEntry]:
        """Highest-priority entry matching the headers, or None (miss).

        Does not touch per-entry counters; the pipeline accounts traffic
        explicitly, because a flow-level "lookup" may represent many
        packets.
        """
        self.lookup_count += 1
        for entry in self._entries:
            if entry.match.matches(headers, in_port):
                self.matched_count += 1
                return entry
        return None

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
        for i, existing in enumerate(self._entries):
            if existing.priority == entry.priority and existing.match == entry.match:
                # The replacement carries its own seq: it leaves the old
                # entry's position for the one its sort key gives it.
                del self._entries[i]
                break
        else:
            if self.max_size is not None and len(self._entries) >= self.max_size:
                raise TableFullError(
                    f"table {self.table_id} full ({self.max_size} entries)"
                )
        insort(self._entries, entry, key=_SORT_KEY)
        self.version += 1
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
            self.version += 1
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
        if removed:
            self.version += 1
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
        if expired:
            self.version += 1
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
            self.version += 1
        self._entries.clear()

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
