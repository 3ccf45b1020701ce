"""Host clock models.

The paper's timestamps come from real host clocks: the INRIA source host was
a DECstation 5000 with a **3.906 ms** clock resolution, and the UMd host used
for the UMd-Pittsburgh experiments had a **3 ms** resolution (the cause of
the regular banding visible in Figures 5 and 6).  :class:`QuantizedClock`
reproduces that artifact.  Host clocks also differ in offset and drift,
which is why NetDyn (and this reproduction) only ever interprets
*differences* of timestamps taken on the *same* host.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator, restore_attributes

#: DECstation 5000 clock resolution (seconds), per the paper.
DECSTATION_RESOLUTION = 3.906e-3

#: Resolution of the UMd source host in the May 1993 experiments (seconds).
UMD_RESOLUTION = 3e-3


class Clock:
    """Interface of a host clock: maps simulation time to host time."""

    __setstate__ = restore_attributes

    def now(self) -> float:
        """Current host-local time in seconds."""
        raise NotImplementedError

    @property
    def resolution(self) -> float:
        """Smallest representable tick (0.0 for a perfect clock)."""
        return 0.0


class PerfectClock(Clock):
    """A clock that reads true simulation time with infinite resolution."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


class QuantizedClock(Clock):
    """A clock whose readings are floored to a fixed tick.

    >>> from repro.sim.kernel import Simulator
    >>> sim = Simulator()
    >>> clock = QuantizedClock(sim, resolution=DECSTATION_RESOLUTION)
    """

    def __init__(self, sim: Simulator, resolution: float) -> None:
        if not (math.isfinite(resolution) and resolution > 0):
            raise ConfigurationError(
                f"clock resolution must be finite and positive, "
                f"got {resolution!r}")
        self._sim = sim
        self._resolution = resolution

    def now(self) -> float:
        ticks = int(self._sim.now / self._resolution)
        return ticks * self._resolution

    @property
    def resolution(self) -> float:
        return self._resolution

