"""Event objects and the pending-event queue of the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing counter assigned at scheduling time, which makes
the execution order of simultaneous events deterministic (FIFO within the
same time and priority) and therefore makes whole simulations reproducible
from a seed.

``Event`` is a hand-written ``__slots__`` class rather than a dataclass: the
kernel creates one instance per scheduled callback and the heap compares
events on every sift, so field access and ``__lt__`` are the hottest code in
the simulator.  The generated ``order=True`` comparator would build a
``(time, priority, sequence)`` tuple on *both* sides of every comparison;
the hand-written one short-circuits on ``time`` (almost always decisive)
without allocating.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Optional

#: Default event priority.  Lower values run first at equal timestamps.
DEFAULT_PRIORITY = 0


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker among events scheduled for the same time; lower runs
        first.
    sequence:
        Scheduling-order counter; final tie-breaker, guarantees determinism.
    action:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag used in error messages and tracing.
    """

    __slots__ = ("time", "priority", "sequence", "action", "label",
                 "cancelled", "_owner")

    def __init__(self, time: float, priority: int, sequence: int,
                 action: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        #: Queue the event is pending in; cleared once popped, cancelled, or
        #: dropped, so cancellation bookkeeping happens exactly once.
        self._owner: Optional["EventQueue"] = None

    def __lt__(self, other: "Event") -> bool:
        # Hot path: called on every heap sift.  Short-circuit on time; ties
        # fall through to priority then the deterministic sequence number.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time == other.time and self.priority == other.priority
                and self.sequence == other.sequence)

    # Ordered-and-mutable, like the dataclass(order=True) it replaces.
    __hash__ = None  # type: ignore[assignment]

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped."""
        if self.cancelled:
            return
        self.cancelled = True
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._notify_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"sequence={self.sequence!r}, label={self.label!r}{state})")


class EventQueue:
    """The simulator's pending-event set: a binary heap with lazy cancellation.

    :class:`~repro.sim.kernel.Simulator` is the only client.  Its
    ``call_at``/``schedule`` push straight onto ``_heap`` (stamping each
    event with ``next(_counter)`` and bumping ``_live``), and its ``run``
    loop pops straight off it; both are inlined there because they are the
    hottest code in the tree.  This class holds the state they share.

    Cancelled events stay in the heap and are discarded when the run loop
    reaches them; this keeps :meth:`Event.cancel` O(1) at the cost of
    transient heap growth, which is the right trade-off for timer-heavy
    network simulations.  The live-event counter is maintained across
    scheduling, execution, cancellation and :meth:`clear`, so ``len(queue)``
    (and :meth:`Simulator.pending_events`) is O(1) instead of a per-call
    heap scan.
    """

    __slots__ = ("_heap", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter: Iterator[int] = itertools.count()
        self._live: int = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def _notify_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`, exactly once."""
        self._live -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        for event in self._heap:
            event._owner = None
        self._heap.clear()
        self._live = 0
