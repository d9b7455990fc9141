"""Flow-level data-plane engine (Horse's core abstraction)."""

from .engine import FlowLevelEngine
from .fairshare import FlowDemand, IncrementalSolver, solve
from .flow import Flow, FlowRoute, FlowState, Terminal

__all__ = [
    "Flow",
    "FlowDemand",
    "FlowLevelEngine",
    "FlowRoute",
    "FlowState",
    "IncrementalSolver",
    "Terminal",
    "solve",
]
