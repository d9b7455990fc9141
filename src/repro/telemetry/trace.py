"""The trace bus: structured span/event emission as JSONL.

Subsystems that can trace (the kernel, both engines, the incremental
solver, the control channel) each hold a ``trace_bus`` attribute that is
``None`` by default; every emission site is guarded by a plain ``is not
None`` check, so a disabled trace costs one attribute read per site and
allocates nothing.  Enabling tracing (``Horse.telemetry
.enable_tracing``) swaps a shared :class:`TraceBus` into those slots.

Every record carries the event ``kind``, the simulation clock ``t``,
and ``wall`` (host seconds since the bus was opened, monotonic); spans
add ``wall_dur_s``.  Records are appended to a JSONL file (or an
in-memory buffer when no path is given), and the ``repro trace`` CLI
records, inspects, and summarizes them.

The schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import IO, Dict, Iterator, List, Optional

#: Bumped when the record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1


class TraceBus:
    """A shared, append-only sink for structured trace records.

    Parameters
    ----------
    sim:
        The kernel whose clock stamps records (``t`` field); ``None``
        stamps 0.0 (useful for unit tests of the bus itself).
    path:
        JSONL output path.  ``None`` buffers records in :attr:`events`
        instead (bounded only by memory — meant for tests/inspection).
    """

    def __init__(self, sim=None, path: Optional[str] = None) -> None:
        self._sim = sim
        self.path = path
        self._handle: Optional[IO[str]] = None
        self.events: List[dict] = []
        self.emitted = 0
        self.closed = False
        self._wall0 = time.perf_counter()
        if path is not None:
            # Open eagerly (truncating) so a recorded trace always starts
            # with the header record, even if nothing else is emitted.
            self._handle = open(path, "w")
        self.emit(
            "trace.open",
            schema=TRACE_SCHEMA_VERSION,
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Append one record: ``kind`` + clocks + caller fields."""
        if self.closed:
            return
        record = {
            "kind": kind,
            "t": self._sim.now if self._sim is not None else 0.0,
            "wall": round(time.perf_counter() - self._wall0, 9),
        }
        record.update(fields)
        self.emitted += 1
        sink = self._writer()
        if sink is not None:
            sink.write(json.dumps(record, default=str))
            sink.write("\n")
        else:
            self.events.append(record)

    @contextmanager
    def span(self, kind: str, **fields) -> Iterator[None]:
        """Time a block; emits ``kind`` with ``wall_dur_s`` on exit."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.emit(
                kind,
                wall_dur_s=round(time.perf_counter() - start, 9),
                **fields,
            )

    def _writer(self) -> Optional[IO[str]]:
        if self.path is None:
            return None
        if self._handle is None:
            # Re-opened lazily after checkpoint restore (append mode so
            # the pre-checkpoint prefix of the trace survives).
            self._handle = open(self.path, "a")
        return self._handle

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Emit ``trace.close``, release the file, drop later records."""
        self.emit("trace.close", emitted=self.emitted)
        self.closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # A file handle doesn't survive pickling; the restored bus
        # re-opens its path in append mode on next emit.
        state["_handle"] = None
        return state


def read_trace(path: str) -> List[dict]:
    """Parse a JSONL trace file into records."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize_trace(records: List[dict]) -> dict:
    """Aggregate a trace: record counts and wall time per kind, each
    kind's ``share`` of the ``kernel.event`` wall total (None when no
    event fired), and the simulated-time range covered.  Spans nest, so
    shares are inclusive: ``engine.solve`` time is also inside the
    ``kernel.event`` that ran it, and shares do not sum to one."""
    by_kind: Dict[str, dict] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for record in records:
        kind = record.get("kind", "?")
        entry = by_kind.setdefault(
            kind, {"count": 0, "wall_dur_s": 0.0}
        )
        entry["count"] += 1
        entry["wall_dur_s"] += record.get("wall_dur_s", 0.0)
        t = record.get("t")
        if isinstance(t, (int, float)):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
    total = by_kind.get("kernel.event", {}).get("wall_dur_s", 0.0)
    for entry in by_kind.values():
        entry["share"] = round(entry["wall_dur_s"] / total, 6) if total else None
        entry["wall_dur_s"] = round(entry["wall_dur_s"], 9)
    return {
        "records": len(records),
        "kinds": dict(sorted(by_kind.items())),
        "sim_time": {"min": t_min, "max": t_max},
    }
