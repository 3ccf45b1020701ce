"""The discrete-event simulator: clock, scheduling, and the run loop.

A :class:`Simulator` owns a binary heap of pending callbacks and a clock
that only advances when they fire.  Components (links, queues, traffic
sources, probe agents) hold a reference to the simulator and schedule
their work through :meth:`Simulator.schedule` / :meth:`Simulator.call_at`.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is a monotonically increasing counter assigned at scheduling time, which
makes the execution order of simultaneous events deterministic (FIFO
within the same time and priority) and therefore makes whole simulations
reproducible from a seed.

The kernel is callback-based rather than coroutine-based: network components
are naturally event-driven (a packet arrives, a timer fires), callbacks keep
the hot path free of generator overhead, and determinism is easy to audit.
Scheduling returns no handle and the kernel cancels nothing: a client that
may need to retract a callback (the mini-TCP retransmission timer) guards
it itself and lets a stale one fire as a no-op.

The run loop is the single hottest function in the repository.  Heap
entries are plain ``(time, priority, sequence, action, label)`` tuples, so
every sift compares them in C, and the sequence numbers are unique, so a
comparison never reaches the callback.  The loop peeks at the head, stops
at ``until``, else pops and unpacks the entry, with the heap and
``heappop`` bound to locals; per-event work is limited to the ``until``
bound check, the clock store (``now`` is a plain attribute, so components
read it without a property call), the counter bump, and the callback
itself.  Both invariants the rest of the tree leans on are preserved: same
seed ⇒ bit-identical event order, and an attached observer changes nothing
but wall-clock bookkeeping.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from time import perf_counter
from types import FunctionType, MethodType
from typing import Any, Callable, Dict, Iterator, Optional, Protocol

from repro.errors import SchedulingError, SimulationError
from repro.sim.random import RandomStreams

#: Default event priority.  Lower values run first at equal timestamps.
DEFAULT_PRIORITY = 0

_INF = float("inf")


def restore_attributes(instance: Any, state: Dict[str, Any]) -> None:
    """``__setstate__`` for the classes a simulated scenario is made of.

    ``copy.deepcopy`` restores an instance of a class without a
    ``__setstate__`` through ``instance.__dict__.update(state)``.  Reading
    ``__dict__`` makes CPython (3.11) give the instance a materialized
    dict, and its attribute reads then leave the compact-layout fast path:
    a probe phase on a copied scenario ran measurably slower than on the
    original.  Setting the attributes one by one, in their original
    order, as ``__init__`` did, keeps the layout.  The hot classes of the
    event path (simulator, nodes, interfaces, traffic sources and sinks,
    size distributions, faults, clocks) take this as their
    ``__setstate__``.
    """
    for name, value in state.items():
        object.__setattr__(instance, name, value)


class KernelObserver(Protocol):
    """What the kernel needs from an attached tracer (see repro.obs).

    Observers are passive: the kernel feeds them one record per executed
    event and never reads anything back, so an attached observer cannot
    change the simulation's trajectory.
    """

    def on_event(self, time: float, label: str, priority: int,
                 wall_seconds: float) -> None:
        """Called after each event fires; ``wall_seconds`` is host CPU cost."""
        ...


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's named random streams.  Two simulators
        built with the same seed and the same scheduling sequence produce
        identical runs.

    Constructing a simulator also resets the packet-uid counter (see
    :func:`repro.net.packet.reset_packet_uids`), so the uids recorded by
    packet-lifecycle tracers depend only on the cell being simulated, never
    on what ran earlier in the same process.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> sim.call_at(2.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    def __init__(self, seed: int = 0) -> None:
        #: Pending events as ``(time, priority, sequence, action, label)``
        #: tuples; ``call_at``/``schedule`` push, only ``run`` pops.
        self._heap: list[tuple[float, int, int, Callable[[], Any], str]] = []
        self._counter: Iterator[int] = itertools.count()
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: components read it on every packet, and only the run
        #: loop writes it (lint rule SIM001 flags a store from outside
        #: ``repro.sim``).
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._observer: Optional[KernelObserver] = None
        self.streams = RandomStreams(seed)
        # Local import: repro.net depends on repro.sim, so the kernel must
        # not import the net package at module level.
        from repro.net.packet import reset_packet_uids
        reset_packet_uids()

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """The simulator's state for ``copy.deepcopy`` (and pickle).

        ``itertools.count`` itself cannot be copied without a warning
        from Python 3.12 on (3.14 drops the support), so the state
        carries the next sequence number as an int; the counter stays an
        ``itertools.count``, keeping ``next(self._counter)`` the
        scheduling hot path's one C call.

        A copy is only sound when every pending action travels with it.
        ``copy.deepcopy`` rebinds a bound method to the copied instance
        and copies a callable object, but it shares a plain function,
        lambda or closure, which would keep acting on the original's
        objects; such a pending action raises :class:`SimulationError`.
        """
        for entry in self._heap:
            action = entry[3]
            if not (isinstance(action, MethodType) or isinstance(
                    getattr(type(action), "__call__", None), FunctionType)):
                raise SimulationError(
                    f"cannot copy a simulator whose pending "
                    f"{entry[4] or action!r} event at t={entry[0]!r} is "
                    f"not a bound method or callable object: a copy "
                    f"would share it with the original")
        sequence = next(self._counter)
        self._counter = itertools.count(sequence)
        state = self.__dict__.copy()
        state["_counter"] = sequence
        return state

    def __setstate__(self, state: dict) -> None:
        restore_attributes(self, state)
        self._counter = itertools.count(state["_counter"])

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (diagnostics, ablations).

        Updated when :meth:`run` returns, not per event — read it between
        runs, not from inside an event callback.
        """
        return self._events_executed

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def observer(self) -> Optional[KernelObserver]:
        """The attached kernel observer, or None when tracing is off."""
        return self._observer

    def attach_observer(self, observer: KernelObserver) -> None:
        """Attach an event tracer (see :mod:`repro.obs`).

        The observer is consulted once per executed event with its simulated
        time, label, priority, and wall-clock cost.  It takes effect at the
        next :meth:`run` call; the untraced hot path is untouched while no
        observer is attached.
        """
        if self._observer is not None:
            raise SimulationError("an observer is already attached")
        self._observer = observer

    def detach_observer(self) -> None:
        """Remove the attached observer (no-op when none is attached)."""
        self._observer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, action: Callable[[], Any],
                priority: int = DEFAULT_PRIORITY, label: str = "") -> None:
        """Schedule ``action`` at absolute time ``time``.

        Raises
        ------
        SchedulingError
            If ``time`` is in the past, NaN, or infinite.  Non-finite times
            would silently corrupt the heap ordering (NaN compares false
            against everything), so they are rejected up front.
        """
        # One chained comparison covers all three rejects: a NaN fails both
        # sides, +inf fails the right, and -inf / the past fail the left.
        if not self.now <= time < _INF:
            if time != time or time in (_INF, -_INF):
                raise SchedulingError(
                    f"cannot schedule {label or action!r} at non-finite "
                    f"t={time!r}")
            raise SchedulingError(
                f"cannot schedule {label or action!r} at t={time:.6f}; "
                f"clock is already at t={self.now:.6f}")
        heappush(self._heap,
                 (time, priority, next(self._counter), action, label))

    def schedule(self, delay: float, action: Callable[[], Any],
                 priority: int = DEFAULT_PRIORITY, label: str = "") -> None:
        """Schedule ``action`` after a relative ``delay`` (seconds).

        Raises
        ------
        SchedulingError
            If ``delay`` is negative, NaN, or infinite.
        """
        if not 0.0 <= delay < _INF:
            if delay != delay or delay == _INF:
                raise SchedulingError(
                    f"cannot schedule {label or action!r} with non-finite "
                    f"delay {delay!r}")
            raise SchedulingError(
                f"cannot schedule {label or action!r} with negative delay "
                f"{delay:.6f}")
        heappush(self._heap, (self.now + delay, priority,
                              next(self._counter), action, label))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Execute events until none is pending or the clock hits ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if the heap drained earlier, so repeated ``run(until=...)`` calls
        advance time monotonically.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        # The observer is bound once per run() call: the untraced loop stays
        # the seed-identical hot path, and the traced loop differs only by
        # wall-clock bookkeeping around action() — simulated state
        # (clock, heap, streams) is advanced identically in both.
        observer = self._observer
        # Hot locals: the heap and heappop are bound once; actions push
        # onto the heap in place, never rebind it.
        heap = self._heap
        pop = heappop
        # Scheduling rejects non-finite times, so every pending event's
        # time is strictly below +inf and an unbounded run needs no
        # separate branch.
        limit = _INF if until is None else until
        # Executed events are counted in a local and folded into
        # self._events_executed when the loop exits: it is a between-runs
        # diagnostic, and no action reads it mid-run.
        executed = 0
        try:
            while heap:
                if heap[0][0] > limit:
                    break
                time, priority, _, action, label = pop(heap)
                self.now = time
                executed += 1
                if observer is None:
                    action()
                else:
                    # Observer wall-cost profiling: measures host time per
                    # event for the tracer, never enters simulated time.
                    started = perf_counter()  # repro: noqa[FLOW001]
                    action()
                    observer.on_event(time, label, priority,
                                      perf_counter() - started)  # repro: noqa[FLOW001]
                if self._stopped:
                    break
            if until is not None and self.now < until and not self._stopped:
                self.now = until
        finally:
            self._events_executed += executed
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of events scheduled but not yet executed."""
        return len(self._heap)
