"""Discrete-event simulation engine used by every substrate in this repo.

The engine is intentionally small: a simulator that is its own event
queue (a head slot plus a heap) over an integer-nanosecond clock,
generator processes that yield int delays, subscriber-list signals,
deterministic named RNG streams, and piecewise-constant signal traces
(the representation of power rails).
"""

from repro.sim.clock import (
    MSEC,
    NSEC,
    SEC,
    USEC,
    from_msec,
    from_seconds,
    from_usec,
    seconds,
)
from repro.sim.engine import Event, Simulator
from repro.sim.process import Process, Signal
from repro.sim.rng import RngRegistry
from repro.sim.trace import EventTrace, StepTrace

__all__ = [
    "Event",
    "EventTrace",
    "MSEC",
    "NSEC",
    "Process",
    "RngRegistry",
    "SEC",
    "Signal",
    "Simulator",
    "StepTrace",
    "USEC",
    "from_msec",
    "from_seconds",
    "from_usec",
    "seconds",
]
