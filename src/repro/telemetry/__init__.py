"""Unified telemetry: tracing, metrics registry, profiling, samples."""

from .hub import Telemetry
from .profile import PhaseProfiler
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
    "PhaseProfiler",
    "MonitorSample",
    "PortKey",
]
