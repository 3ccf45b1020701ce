"""Reference oracle for the drop-tail queue's occupancy integrals.

:class:`TimeWeightedValue` is the time-weighted average each
:class:`~repro.net.queue.DropTailQueue` kept twice over (packets and bytes)
before the queue integrated its occupancy inline.  Its methods are kept
verbatim; tests drive a pair of them alongside a queue and compare the
queue's means and peak against them with ``==``.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class TimeWeightedValue:
    """Tracks a piecewise-constant value and its time-weighted statistics.

    Typical use: queue occupancy.  Call :meth:`update` whenever the value
    changes; query :meth:`mean` at any time.
    """

    def __init__(self, sim: Simulator, initial: float = 0.0) -> None:
        self._sim = sim
        self._value = initial
        self._last_change = sim.now
        self._weighted_sum = 0.0
        self._start = sim.now
        self._max = initial
        self._min = initial

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def update(self, new_value: float) -> None:
        """Record that the tracked value changed to ``new_value`` now."""
        now = self._sim.now
        self._weighted_sum += self._value * (now - self._last_change)
        self._value = new_value
        self._last_change = now
        self._max = max(self._max, new_value)
        self._min = min(self._min, new_value)

    def mean(self) -> float:
        """Time-weighted mean of the value since creation."""
        now = self._sim.now
        total = (now - self._start)
        if total <= 0:
            return self._value
        weighted = self._weighted_sum + self._value * (now - self._last_change)
        return weighted / total

    def maximum(self) -> float:
        """Largest value observed."""
        return self._max

    def minimum(self) -> float:
        """Smallest value observed."""
        return self._min
