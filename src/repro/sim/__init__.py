"""Discrete-event simulation kernel.

The kernel is deliberately small: a simulator clock, a heap of pending
callbacks with deterministic tie-breaking, and the run loop
(:mod:`repro.sim.kernel`), plus named reproducible random streams
(:mod:`repro.sim.random`).
"""
