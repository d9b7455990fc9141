"""The unified observation entry point.

One :class:`Telemetry` per simulation owns the metrics registry and
controls tracing.  Subsystems that trace expose a ``trace_bus``
attribute (``None`` when disabled); :meth:`Telemetry.bind` records
them, and enable/disable calls swap the shared
:class:`~repro.telemetry.trace.TraceBus` in and out of those slots.
Its spans are the one record of where a run's wall time went.
:class:`~repro.core.simulator.Horse` constructs and binds one
automatically — ``horse.telemetry`` is the user-facing handle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import MetricsRegistry
from .trace import TraceBus


class Telemetry:
    """Registry + trace control for one simulation.

    Examples
    --------
    >>> from repro.sim import Simulator
    >>> from repro.telemetry import summarize_trace
    >>> telemetry = Telemetry(Simulator())
    >>> bus = telemetry.enable_tracing()   # in-memory buffer
    >>> bus.emit("example", detail=1)
    >>> telemetry.disable_tracing()
    >>> summarize_trace(bus.events)["kinds"]["example"]["count"]
    1
    """

    def __init__(self, sim=None) -> None:
        self._sim = sim
        self.registry = MetricsRegistry()
        self.trace: Optional[TraceBus] = None
        self._sinks: List[object] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, *sinks: object) -> None:
        """Register subsystems whose ``trace_bus`` slots this hub
        manages.  Already-enabled tracing is applied to newly bound
        sinks immediately."""
        for sink in sinks:
            if sink is None or sink in self._sinks:
                continue
            self._sinks.append(sink)
            if self.trace is not None and hasattr(sink, "trace_bus"):
                sink.trace_bus = self.trace

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return self.trace is not None

    def enable_tracing(self, path: Optional[str] = None) -> TraceBus:
        """Start tracing every bound subsystem.

        ``path`` writes JSONL records there; without it the records
        buffer in ``bus.events``.  Idempotent while already enabled
        (returns the live bus).
        """
        if self.trace is not None:
            return self.trace
        bus = TraceBus(self._sim, path=path)
        self.trace = bus
        for sink in self._sinks:
            if hasattr(sink, "trace_bus"):
                sink.trace_bus = bus
        return bus

    def disable_tracing(self) -> None:
        """Stop tracing and close the bus (a no-op when tracing was not
        enabled).  ``summarize_trace(read_trace(path))`` summarizes a
        recorded trace; ``summarize_trace(bus.events)`` an in-memory
        one."""
        bus = self.trace
        if bus is None:
            return
        self.trace = None
        for sink in self._sinks:
            if getattr(sink, "trace_bus", None) is bus:
                sink.trace_bus = None
        bus.close()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The registry's flattened metric namespace."""
        return self.registry.snapshot()

    def prometheus(self) -> str:
        """The registry as a Prometheus-style text exposition."""
        return self.registry.to_prometheus()
