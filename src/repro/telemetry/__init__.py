"""Unified telemetry: tracing, metrics registry, samples."""

from .hub import Telemetry
from .registry import MetricsRegistry
from .sample import MonitorSample, PortKey
from .trace import TRACE_SCHEMA_VERSION, TraceBus, read_trace, summarize_trace

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "TraceBus",
    "read_trace",
    "summarize_trace",
    "TRACE_SCHEMA_VERSION",
    "MonitorSample",
    "PortKey",
]
