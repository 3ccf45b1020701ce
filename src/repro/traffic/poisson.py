"""Poisson traffic source."""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.traffic.base import SINK_PORT, TrafficSource
from repro.traffic.sizes import FixedSize, SizeDistribution

class PoissonSource(TrafficSource):
    """Packets arrive as a Poisson process of fixed rate.

    Parameters
    ----------
    rate_pps:
        Mean packet arrival rate, packets per second.
    sizes:
        Payload size distribution (defaults to fixed 512 B).
    """

    def __init__(self, host: Host, destination: str, rate_pps: float,
                 sizes: Optional[SizeDistribution] = None,
                 port: int = SINK_PORT,
                 stream: str = "traffic.poisson") -> None:
        super().__init__(host, destination, port=port, stream=stream)
        if not (math.isfinite(rate_pps) and rate_pps > 0):
            raise ConfigurationError(
                f"rate_pps must be finite and positive, got {rate_pps!r}")
        self.rate_pps = rate_pps
        self.sizes = sizes if sizes is not None else FixedSize(512)
        self._mean_interval = 1.0 / rate_pps

    def _next_interval(self) -> float:
        return self.rng.exponential(self._mean_interval)

    def _emit(self) -> None:
        self._send(self.sizes.sample(self.rng))

