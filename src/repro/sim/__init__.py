"""Discrete-event simulation engine for the host-network simulator.

The engine is deliberately minimal: a heap-ordered event loop with a
nanosecond-resolution clock. Every component of the host network
(cores, CHA, memory controller, IIO, PCIe devices) schedules callbacks
on a shared :class:`Simulator` instance.
"""

from repro.sim.engine import Alarm, Event, Simulator
from repro.sim.records import Request, RequestKind, RequestSource

__all__ = [
    "Alarm",
    "Event",
    "Simulator",
    "Request",
    "RequestKind",
    "RequestSource",
]
