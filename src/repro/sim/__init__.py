"""Discrete-event simulation kernel.

Provides the shared clock, deterministic pending-event set, and seeded
random streams used by every other subsystem.
"""

from .event import CallbackEvent, Event, PeriodicEvent
from .kernel import Simulator
from .queue import HeapEventQueue
from .rng import RngRegistry, spawn_seed

__all__ = [
    "CallbackEvent",
    "Event",
    "HeapEventQueue",
    "PeriodicEvent",
    "RngRegistry",
    "Simulator",
    "spawn_seed",
]
