"""The metrics registry: pull sources under one dotted namespace.

One queryable surface over every statistic the simulator produces.
Each source is a callable registered with :meth:`MetricsRegistry
.register_source` that returns a plain dict of values when the registry
is snapshot.  The data-plane engines keep their counters in flat dicts
(a per-event registry call would slow the hot path); the registry pulls
them at read time, so ``engine_stats``, route-cache counters, channel
message counts, and monitor utilization all appear under one namespace
without costing the simulation anything.

A snapshot flattens everything into dotted names
(``engine.route_cache_hits``, ``channel.flow_mods``,
``monitor.max_utilization.s1:2``) and :meth:`to_prometheus` renders the
same data as a Prometheus-style text exposition.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from ..errors import TelemetryError


def _flatten(prefix: str, value, out: Dict[str, object]) -> None:
    """Flatten nested dicts into dotted keys; tuples become ``a:b``."""
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(key, tuple):
                key = ":".join(str(part) for part in key)
            _flatten(f"{prefix}.{key}" if prefix else str(key), inner, out)
    else:
        out[prefix] = value


class MetricsRegistry:
    """Pull sources, snapshot-able as one namespace.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.register_source("engine", lambda: {"arrivals": 3})
    >>> registry.snapshot()["engine.arrivals"]
    3
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Callable[[], dict]] = {}

    def register_source(
        self, prefix: str, supplier: Callable[[], dict]
    ) -> None:
        """Register a dict-returning callable pulled at snapshot time.

        ``supplier`` must be picklable when the registry participates in
        checkpoints — bound methods of checkpointed objects are, lambdas
        are not.
        """
        if not prefix:
            raise TelemetryError("source prefix must be non-empty")
        if prefix in self._sources:
            raise TelemetryError(f"source prefix {prefix!r} already registered")
        self._sources[prefix] = supplier

    def snapshot(self) -> Dict[str, object]:
        """Every source value, flattened to dotted names."""
        out: Dict[str, object] = {}
        for prefix in sorted(self._sources):
            _flatten(prefix, self._sources[prefix](), out)
        return out

    def to_prometheus(self) -> str:
        """A Prometheus-style text exposition of the registry.

        Every value is an untyped sample.  Non-numeric values (mode
        strings and the like) are emitted as comments so the document
        stays machine-parseable.
        """
        lines: List[str] = []
        for key, value in self.snapshot().items():
            prom = _prom_name(key)
            if isinstance(value, bool):
                lines.append(f"{prom} {int(value)}")
            elif isinstance(value, (int, float)):
                lines.append(f"{prom} {_prom_float(value)}")
            else:
                lines.append(f"# {prom} = {value!r}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus exposition."""
    out = []
    for char in name:
        out.append(char if char.isalnum() or char == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_float(value) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
