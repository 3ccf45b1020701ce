"""Discrete-event simulation kernel.

The kernel is deliberately small: an event heap with deterministic
tie-breaking (:mod:`repro.sim.events`), a simulator clock and run loop
(:mod:`repro.sim.kernel`), and named reproducible random streams
(:mod:`repro.sim.random`).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "RandomStreams",
]
