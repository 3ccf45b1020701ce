"""Kernel event tracing: what fired, when, and what it cost.

A :class:`KernelTracer` attaches to :meth:`repro.sim.kernel.Simulator` via
``sim.attach_observer(tracer)`` and records one :class:`EventRecord` per
executed event — simulated time, label, priority, and the wall-clock cost of
the callback.  Records go into a bounded ring buffer, and every event also
feeds a per-label :class:`LabelProfile`, which is how hot paths are found:
sort profiles by total wall time and the most expensive event kinds fall
out.

The tracer is purely passive: it never touches the simulator, so attaching
it cannot change any simulated timestamp (the same-seed equality tests in
``tests/obs`` enforce this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

#: Ring-buffer capacity: large enough for a full short experiment,
#: bounded so day-long runs cannot exhaust memory.
DEFAULT_CAPACITY = 1_000_000


class EventRecord:
    """One executed kernel event.

    A slotted immutable-by-convention value object (one is allocated per
    executed event while tracing, so instance size matters).

    Attributes
    ----------
    time:
        Simulated time at which the event fired, seconds.
    label:
        The event's scheduling label (``"tx-done a->b"``, ``"traffic"``...).
    priority:
        Scheduling priority (tie-breaker; lower ran first).
    wall_seconds:
        Wall-clock cost of the event callback, seconds.
    """

    __slots__ = ("time", "label", "priority", "wall_seconds")

    def __init__(self, time: float, label: str, priority: int,
                 wall_seconds: float) -> None:
        self.time = time
        self.label = label
        self.priority = priority
        self.wall_seconds = wall_seconds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventRecord):
            return NotImplemented
        return (self.time == other.time and self.label == other.label
                and self.priority == other.priority
                and self.wall_seconds == other.wall_seconds)

    def __hash__(self) -> int:
        return hash((self.time, self.label, self.priority,
                     self.wall_seconds))

    def __repr__(self) -> str:
        return (f"EventRecord(time={self.time!r}, label={self.label!r}, "
                f"priority={self.priority!r}, "
                f"wall_seconds={self.wall_seconds!r})")

    def as_dict(self) -> dict:
        """JSON-serializable form (one JSONL row)."""
        return {"time": self.time, "label": self.label,
                "priority": self.priority,
                "wall_seconds": self.wall_seconds}


@dataclass
class LabelProfile:
    """Aggregate cost of every event sharing one label."""

    label: str
    count: int = 0
    total_wall_seconds: float = 0.0
    max_wall_seconds: float = 0.0
    first_time: float = 0.0
    last_time: float = 0.0

    def add(self, time: float, wall_seconds: float) -> None:
        """Fold one event into the profile."""
        if self.count == 0:
            self.first_time = time
        self.count += 1
        self.total_wall_seconds += wall_seconds
        if wall_seconds > self.max_wall_seconds:
            self.max_wall_seconds = wall_seconds
        self.last_time = time

    def mean_wall_seconds(self) -> float:
        """Average wall-clock cost per event, seconds."""
        return self.total_wall_seconds / self.count if self.count else 0.0

    def events_per_sim_second(self) -> float:
        """Firing rate of this label in simulated time."""
        span = self.last_time - self.first_time
        if span <= 0:
            return 0.0
        return self.count / span

    def as_dict(self) -> dict:
        """JSON-serializable form (one profile row)."""
        return {"label": self.label, "count": self.count,
                "total_wall_seconds": self.total_wall_seconds,
                "max_wall_seconds": self.max_wall_seconds,
                "mean_wall_seconds": self.mean_wall_seconds(),
                "events_per_sim_second": self.events_per_sim_second()}


class KernelTracer:
    """Records executed kernel events into a ring buffer plus label profiles.

    The ring keeps the last :data:`DEFAULT_CAPACITY` records; older ones
    are discarded once it is full (:attr:`overwritten` counts them).

    Examples
    --------
    >>> from repro.sim import Simulator
    >>> sim = Simulator(seed=1)
    >>> tracer = KernelTracer()
    >>> sim.attach_observer(tracer)
    >>> _ = sim.call_at(1.0, lambda: None, label="tick")
    >>> sim.run()
    >>> [record.label for record in tracer.records]
    ['tick']
    """

    def __init__(self) -> None:
        self._records: Deque[EventRecord] = deque(maxlen=DEFAULT_CAPACITY)
        self._profiles: Dict[str, LabelProfile] = {}
        self.events_seen = 0
        self.total_wall_seconds = 0.0

    # ------------------------------------------------------------------
    # KernelObserver interface (called by Simulator.run)
    # ------------------------------------------------------------------
    def on_event(self, time: float, label: str, priority: int,
                 wall_seconds: float) -> None:
        """Record one executed event (the kernel's observer callback)."""
        self.events_seen += 1
        self.total_wall_seconds += wall_seconds
        self._records.append(EventRecord(time=time, label=label,
                                         priority=priority,
                                         wall_seconds=wall_seconds))
        profile = self._profiles.get(label)
        if profile is None:
            profile = self._profiles[label] = LabelProfile(label=label)
        profile.add(time, wall_seconds)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[EventRecord]:
        """The retained event records, oldest first."""
        return list(self._records)

    @property
    def overwritten(self) -> int:
        """How many records the ring buffer has already discarded."""
        return self.events_seen - len(self._records)

    def profiles(self) -> List[LabelProfile]:
        """Per-label profiles, most expensive (total wall time) first."""
        return sorted(self._profiles.values(),
                      key=lambda p: (-p.total_wall_seconds, p.label))

    def events_per_wall_second(self) -> float:
        """Observed kernel throughput: events / total callback wall time."""
        if self.total_wall_seconds <= 0:
            return 0.0
        return self.events_seen / self.total_wall_seconds

    def hot_labels(self, n: int = 10) -> List[LabelProfile]:
        """The ``n`` labels costing the most total wall time."""
        return self.profiles()[:n]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (f"<KernelTracer {self.events_seen} events "
                f"({len(self._records)} retained, "
                f"{len(self._profiles)} labels)>")
