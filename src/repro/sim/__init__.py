"""Discrete-event simulation kernel.

Provides the shared clock, deterministic pending-event set, and seeded
random streams used by every other subsystem.
"""

from .event import CallbackEvent, Event, PeriodicEvent
from .faults import FaultProfile, FaultRecord, LinkFaultInjector
from .kernel import Simulator
from .process import ProcessHandle, spawn
from .queue import EventQueue, HeapEventQueue, SortedListEventQueue
from .rng import RngRegistry, spawn_seed

__all__ = [
    "CallbackEvent",
    "Event",
    "EventQueue",
    "FaultProfile",
    "FaultRecord",
    "LinkFaultInjector",
    "HeapEventQueue",
    "PeriodicEvent",
    "RngRegistry",
    "ProcessHandle",
    "Simulator",
    "SortedListEventQueue",
    "spawn",
    "spawn_seed",
]
