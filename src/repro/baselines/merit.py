"""Merit-style coarse statistics: one delay sample per 15-minute interval.

Merit Network Inc. published monthly NSFNET delay statistics computed from
measurements at 15-minute intervals [6].  The paper criticizes them on two
grounds: the sampling is far too coarse to capture dynamics, and the
measurements run between backbone interfaces rather than end to end.  This
baseline reproduces the methodology (configurable interval for tractable
simulations) so the comparison benchmarks can quantify exactly how much
structure the coarse sampling misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.tools.ping import ping

#: Merit's real sampling interval, seconds.
MERIT_INTERVAL = 15 * 60.0


@dataclass
class MeritStats:
    """Coarse-grained delay statistics in the style of the Merit reports."""

    #: One rtt sample per interval, seconds (NaN if unanswered).
    samples: np.ndarray
    interval: float

    def availability(self) -> float:
        """Fraction of intervals with an answered sample."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(~np.isnan(self.samples)))


def merit_sampling(network: Network, source: str, destination: str,
                   intervals: int = 8,
                   interval: float = MERIT_INTERVAL) -> MeritStats:
    """Take one echo sample per ``interval`` seconds, ``intervals`` times."""
    if intervals < 1:
        raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
    if interval <= 0:
        raise ConfigurationError(f"interval must be positive, got {interval}")
    samples = np.full(intervals, np.nan)
    for i in range(intervals):
        result = ping(network, source, destination, count=1, interval=1.0,
                      ident=200 + i)
        if result.rtts:
            samples[i] = result.rtts[0]
        consumed = 1.0 + 3.0  # one echo + ping timeout
        network.sim.run(until=network.sim.now
                        + max(0.0, interval - consumed))
    return MeritStats(samples=samples, interval=interval)
