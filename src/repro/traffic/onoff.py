"""On-off (burst/silence) traffic source."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.traffic.base import SINK_PORT, TrafficSource
from repro.traffic.sizes import FixedSize, SizeDistribution
from typing import Optional


class OnOffSource(TrafficSource):
    """Alternates exponential ON periods (CBR emission) and OFF silences.

    The standard parsimonious model of bursty sources; used in the ablation
    benches to contrast smooth and bursty cross traffic.
    """

    def __init__(self, host: Host, destination: str, on_mean: float,
                 off_mean: float, interval: float,
                 sizes: Optional[SizeDistribution] = None,
                 port: int = SINK_PORT,
                 stream: str = "traffic.onoff") -> None:
        super().__init__(host, destination, port=port, stream=stream)
        for name, value in (("on_mean", on_mean), ("off_mean", off_mean),
                            ("interval", interval)):
            if value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}")
        self.on_mean = on_mean
        self.off_mean = off_mean
        self.interval = interval
        self.sizes = sizes if sizes is not None else FixedSize(512)
        self._on_until = 0.0

    def _next_interval(self) -> float:
        now = self._sim.now
        if now < self._on_until:
            return self.interval
        # Burst over: draw a silence, then a new burst length.
        silence = self.rng.exponential(self.off_mean)
        burst = self.rng.exponential(self.on_mean)
        self._on_until = now + silence + burst
        return silence

    def _emit(self) -> None:
        if self._sim.now <= self._on_until:
            self._send(self.sizes.sample(self.rng))
