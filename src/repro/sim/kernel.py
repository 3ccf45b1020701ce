"""The discrete-event simulator: clock, scheduling, and the run loop.

A :class:`Simulator` owns a single :class:`~repro.sim.events.EventQueue` and a
clock that only advances when events fire.  Components (links, queues,
traffic sources, probe agents) hold a reference to the simulator and schedule
their work through :meth:`Simulator.schedule` / :meth:`Simulator.call_at`.

The kernel is callback-based rather than coroutine-based: network components
are naturally event-driven (a packet arrives, a timer fires), callbacks keep
the hot path free of generator overhead, and determinism is easy to audit.

The run loop is the single hottest function in the repository.  It pops the
next live event straight off the queue's heap (one traversal: peek at the
head, skip it if cancelled, stop at ``until``, else pop) with the heap and
``heappop`` bound to locals; per-event work is limited to the cancelled-skip,
the ``until`` bound check, the clock store, the counter bump, and the
callback itself.  Both invariants the rest of the tree leans on are
preserved: same seed ⇒ bit-identical event order, and an attached observer
changes nothing but wall-clock bookkeeping.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Optional, Protocol

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import DEFAULT_PRIORITY, Event, EventQueue
from repro.sim.random import RandomStreams

_INF = float("inf")

#: Allocate an Event without running ``Event.__init__`` (the scheduling
#: fast path sets every slot itself).
_new_event = Event.__new__


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
    >>> _ = sim.call_at(2.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now = 0.0
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
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
                priority: int = DEFAULT_PRIORITY, label: str = "") -> Event:
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
        if not self._now <= time < _INF:
            if time != time or time in (_INF, -_INF):
                raise SchedulingError(
                    f"cannot schedule {label or action!r} at non-finite "
                    f"t={time!r}")
            raise SchedulingError(
                f"cannot schedule {label or action!r} at t={time:.6f}; "
                f"clock is already at t={self._now:.6f}")
        # The heap push, inlined down to the allocation: scheduling
        # happens once per event, so a helper's and Event.__init__'s call
        # frames are both measurable (see DESIGN.md, "Hot path").  The
        # field stores must mirror Event.__init__ exactly.
        queue = self._queue
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.sequence = next(queue._counter)
        event.action = action
        event.label = label
        event.cancelled = False
        event._owner = queue
        heappush(queue._heap, event)
        queue._live += 1
        return event

    def schedule(self, delay: float, action: Callable[[], Any],
                 priority: int = DEFAULT_PRIORITY, label: str = "") -> Event:
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
        # The heap push, inlined down to the allocation (see call_at).
        queue = self._queue
        event = _new_event(Event)
        event.time = self._now + delay
        event.priority = priority
        event.sequence = next(queue._counter)
        event.action = action
        event.label = label
        event.cancelled = False
        event._owner = queue
        heappush(queue._heap, event)
        queue._live += 1
        return event

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Execute events until the queue empties or the clock hits ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if the queue drained earlier, so repeated ``run(until=...)`` calls
        advance time monotonically.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        # The observer is bound once per run() call: the untraced loop stays
        # the seed-identical hot path, and the traced loop differs only by
        # wall-clock bookkeeping around event.action() — simulated state
        # (clock, queue, streams) is advanced identically in both.
        observer = self._observer
        # Hot locals: the heap and heappop are bound once; actions mutate
        # the heap in place (push/cancel), never rebind it.
        queue = self._queue
        heap = queue._heap
        pop = heappop
        # Scheduling rejects non-finite times, so every live event's time is
        # strictly below +inf and an unbounded run needs no separate branch.
        limit = _INF if until is None else until
        # Executed events are counted in a local and folded into
        # self._events_executed and the queue's live counter when the loop
        # exits: both are between-runs diagnostics (events_executed,
        # pending_events), and no action reads them mid-run.
        executed = 0
        try:
            while heap:
                event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if event.time > limit:
                    break
                pop(heap)
                event._owner = None
                self._now = event.time
                executed += 1
                if observer is None:
                    event.action()
                else:
                    # Observer wall-cost profiling: measures host time per
                    # event for the tracer, never enters simulated time.
                    started = perf_counter()  # repro: noqa[FLOW001]
                    event.action()
                    observer.on_event(event.time, event.label,
                                      event.priority,
                                      perf_counter() - started)  # repro: noqa[FLOW001]
                if self._stopped:
                    break
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._events_executed += executed
            queue._live -= executed
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of live events still scheduled.

        Exact between :meth:`run` calls; from inside an event callback the
        count may still include events this run has already executed.
        """
        return len(self._queue)
