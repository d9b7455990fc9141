"""The pending-event set.

:class:`HeapEventQueue` holds *entries* — ``(time, priority, seq,
event)`` tuples — rather than events.  The kernel stamps a unique
``seq`` on every schedule (the next one, or one ``Simulator.reserve``
handed out earlier), so ``heapq`` orders entries by comparing tuples in
C and a comparison never reaches the event.

An entry is **live** while its event is not cancelled and the entry's
``seq`` is the event's current ``seq``.  Cancellation is lazy (the
event is flagged and its entry skipped at pop); rescheduling re-stamps
the event and pushes a new entry, which leaves the old one dead the same
way.  Dead entries are cheap to make but let churn-heavy workloads fill
the heap, so :class:`HeapEventQueue` keeps live/stale accounting and
rebuilds itself (*compaction*) once dead entries exceed a configurable
fraction of the heap.  Compaction only drops entries that would never
have fired, preserving the ``(time, priority, seq)`` pop order, so run
digests are unchanged.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .event import Event

#: A pending-set entry: the event's ordering key, then the event.
Entry = Tuple[float, int, int, Event]

#: Default stale fraction of the heap that triggers a compaction.  At
#: 0.5 the heap never holds more than ~2x the live events (the
#: bounded-memory property the E14 benchmark gates on).
DEFAULT_COMPACTION_THRESHOLD = 0.5

#: Default raw size below which compaction never triggers — rebuilding
#: a tiny heap costs more than popping a handful of tombstones.
DEFAULT_MIN_COMPACT_SIZE = 64


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
        self._heap: List[Entry] = []
        #: Dead entries still in the heap (see :meth:`note_cancel`).
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
        heap = self._heap
        heapq.heappush(heap, (event.time, event.priority, event.seq, event))
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)

    def pop_entry(self) -> Entry:
        entry = heapq.heappop(self._heap)
        if self._stale:
            event = entry[3]
            if event.cancelled or entry[2] != event.seq:
                self._stale -= 1
        return entry

    def pop(self) -> Event:
        """Remove the earliest entry and return its event."""
        return self.pop_entry()[3]

    def peek(self) -> Optional[Event]:
        """Return the earliest entry's event without removing it, or None."""
        return self._heap[0][3] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # Live/stale accounting
    # ------------------------------------------------------------------
    @property
    def stale(self) -> int:
        """Known dead entries still in the heap."""
        return self._stale

    @property
    def live(self) -> int:
        """Entries still expected to fire (raw size minus known stale)."""
        return len(self._heap) - self._stale

    def note_cancel(self, event: Event) -> bool:
        """Record that a queued entry of ``event`` went dead (the event
        was cancelled or rescheduled).

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

    def compact(self) -> None:
        """Rebuild the heap without its dead entries.

        Heapifying the filtered list preserves the total
        ``(time, priority, seq)`` order, so the pop sequence of live
        events — and therefore every run digest — is unchanged.
        """
        heap = self._heap
        live = [entry for entry in heap
                if not entry[3].cancelled and entry[2] == entry[3].seq]
        if len(live) < len(heap):
            heapq.heapify(live)
            self._heap = live
        self._stale = 0
        self.compactions += 1
        self.stale_discarded += len(heap) - len(live)

    def health(self) -> dict:
        """Queue-health counters (exported via ``stats_snapshot``)."""
        return {
            "stale": self._stale,
            "compactions": self.compactions,
            "stale_discarded": self.stale_discarded,
            "peak_size": self.peak_size,
        }
