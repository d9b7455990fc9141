"""Pending-event set implementations.

The default :class:`HeapEventQueue` is a binary heap with ``(time,
priority, seq)`` ordering — O(log n) push/pop and deterministic
tie-breaking.  Cancellation is lazy (the kernel marks an event and the
queue skips it at pop), which is cheap per cancel but lets churn-heavy
workloads fill the heap with stale tombstones; the queue therefore
keeps live/stale accounting and rebuilds itself (*compaction*) once
tombstones exceed a configurable fraction of the heap.  Compaction only
drops entries that would never have fired, preserving the
``(time, priority, seq)`` pop order, so run digests are unchanged.

:class:`SortedListEventQueue` is a deliberately naive insertion-sorted
list kept for the E6 ablation benchmark, demonstrating why the heap was
chosen.
"""

from __future__ import annotations

import bisect
import heapq
from typing import List, Optional, Protocol

from .event import Event

#: Default stale fraction of the heap that triggers a compaction.  At
#: 0.5 the heap never holds more than ~2x the live events (the
#: bounded-memory property the E14 benchmark gates on).
DEFAULT_COMPACTION_THRESHOLD = 0.5

#: Default raw size below which compaction never triggers — rebuilding
#: a tiny heap costs more than popping a handful of tombstones.
DEFAULT_MIN_COMPACT_SIZE = 64


class EventQueue(Protocol):
    """Interface required of a pending-event set."""

    def push(self, event: Event) -> None:
        """Insert an event."""
        ...

    def pop(self) -> Event:
        """Remove and return the earliest event. Raises IndexError if empty."""
        ...

    def peek(self) -> Optional[Event]:
        """Return the earliest event without removing it, or None."""
        ...

    def __len__(self) -> int: ...

    def clear(self) -> None:
        """Drop all pending events."""
        ...


class HeapEventQueue:
    """Binary-heap pending-event set (the production implementation).

    Parameters
    ----------
    compaction_threshold:
        Stale (tombstoned) fraction of the raw heap above which
        :meth:`compact` is requested; None disables compaction and
        reproduces the original pure-lazy behavior.
    min_compact_size:
        Raw heap size below which compaction never triggers.

    The queue itself never cancels events; the kernel reports each
    tombstone through :meth:`note_cancel` and performs the compaction
    it requests (so the kernel can fix up its own live-event accounting
    and emit a ``kernel.compact`` trace span around the rebuild).
    """

    __slots__ = (
        "_heap",
        "_stale",
        "compaction_threshold",
        "min_compact_size",
        "compactions",
        "stale_discarded",
        "peak_size",
    )

    def __init__(
        self,
        compaction_threshold: Optional[float] = DEFAULT_COMPACTION_THRESHOLD,
        min_compact_size: int = DEFAULT_MIN_COMPACT_SIZE,
    ) -> None:
        if compaction_threshold is not None and not (
            0.0 < compaction_threshold <= 1.0
        ):
            raise ValueError(
                "compaction_threshold must be in (0, 1] or None, "
                f"got {compaction_threshold}"
            )
        if min_compact_size < 0:
            raise ValueError(
                f"min_compact_size must be >= 0, got {min_compact_size}"
            )
        self._heap: List[Event] = []
        #: Tombstoned entries known to still sit in the heap.  Events
        #: cancelled directly (``event.cancel()`` without going through
        #: ``Simulator.cancel``) are not counted until popped, so this
        #: is a lower bound; :meth:`compact` re-trues it.
        self._stale = 0
        self.compaction_threshold = compaction_threshold
        self.min_compact_size = min_compact_size
        #: Lifetime number of compaction rebuilds.
        self.compactions = 0
        #: Lifetime number of tombstones dropped by compaction (popping
        #: a tombstone lazily does not count).
        self.stale_discarded = 0
        #: High-water mark of the raw heap size.
        self.peak_size = 0

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)
        if len(self._heap) > self.peak_size:
            self.peak_size = len(self._heap)

    def pop(self) -> Event:
        event = heapq.heappop(self._heap)
        if event.cancelled and self._stale > 0:
            self._stale -= 1
        return event

    def peek(self) -> Optional[Event]:
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        self._heap.clear()
        self._stale = 0

    # ------------------------------------------------------------------
    # Live/stale accounting
    # ------------------------------------------------------------------
    @property
    def stale(self) -> int:
        """Known tombstoned entries still in the heap."""
        return self._stale

    @property
    def live(self) -> int:
        """Entries still expected to fire (raw size minus known stale)."""
        return len(self._heap) - self._stale

    def note_cancel(self, event: Event) -> bool:
        """Record that a queued event was tombstoned.

        Returns True when the stale fraction crossed
        ``compaction_threshold`` — the caller should then invoke
        :meth:`compact`.
        """
        self._stale += 1
        threshold = self.compaction_threshold
        size = len(self._heap)
        return (
            threshold is not None
            and size >= self.min_compact_size
            and self._stale > threshold * size
        )

    def compact(self) -> List[Event]:
        """Rebuild the heap without its tombstoned entries.

        Heapifying the filtered list preserves the total
        ``(time, priority, seq)`` order, so the pop sequence of live
        events — and therefore every run digest — is unchanged.
        Returns the dropped events so the kernel can adjust its own
        non-daemon pending count.
        """
        dropped = [e for e in self._heap if e.cancelled]
        if dropped:
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            for event in dropped:
                event.queued = False
        self._stale = 0
        self.compactions += 1
        self.stale_discarded += len(dropped)
        return dropped

    def health(self) -> dict:
        """Queue-health counters (exported via ``stats_snapshot``)."""
        return {
            "stale": self._stale,
            "compactions": self.compactions,
            "stale_discarded": self.stale_discarded,
            "peak_size": self.peak_size,
        }


class SortedListEventQueue:
    """Insertion-sorted list queue (ablation baseline, O(n) insert)."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: List[Event] = []

    def push(self, event: Event) -> None:
        bisect.insort(self._events, event)

    def pop(self) -> Event:
        return self._events.pop(0)

    def peek(self) -> Optional[Event]:
        return self._events[0] if self._events else None

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
