"""Poisson and modulated-Poisson traffic sources."""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.traffic.base import SINK_PORT, TrafficSource
from repro.traffic.sizes import FixedSize, SizeDistribution

#: Signature of a time-varying rate function (packets/s at time t).
RateFunction = Callable[[float], float]


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
        if rate_pps <= 0:
            raise ConfigurationError(
                f"rate must be positive, got {rate_pps}")
        self.rate_pps = rate_pps
        self.sizes = sizes if sizes is not None else FixedSize(512)
        self._mean_interval = 1.0 / rate_pps

    def _next_interval(self) -> float:
        return self.rng.exponential(self._mean_interval)

    def _emit(self) -> None:
        self._send(self.sizes.sample(self.rng))


class ModulatedPoissonSource(TrafficSource):
    """A Poisson source whose rate varies with time (thinning method).

    Candidate events are generated at ``peak_rate_pps`` and accepted with
    probability ``rate(t) / peak_rate_pps``, producing an inhomogeneous
    Poisson process — used to model the slowly varying base congestion level
    (diurnal cycle) reported by Mukherjee [19].
    """

    def __init__(self, host: Host, destination: str, rate: RateFunction,
                 peak_rate_pps: float,
                 sizes: Optional[SizeDistribution] = None,
                 port: int = SINK_PORT,
                 stream: str = "traffic.mmpp") -> None:
        super().__init__(host, destination, port=port, stream=stream)
        if peak_rate_pps <= 0:
            raise ConfigurationError(
                f"peak rate must be positive, got {peak_rate_pps}")
        self.rate = rate
        self.peak_rate_pps = peak_rate_pps
        self.sizes = sizes if sizes is not None else FixedSize(512)
        self.thinned = 0
        self._mean_interval = 1.0 / peak_rate_pps

    def _next_interval(self) -> float:
        return self.rng.exponential(self._mean_interval)

    def _emit(self) -> None:
        current = self.rate(self._sim.now)
        acceptance = min(1.0, max(0.0, current / self.peak_rate_pps))
        if self.rng.random() < acceptance:
            self._send(self.sizes.sample(self.rng))
        else:
            self.thinned += 1


class DiurnalProfile:
    """A sinusoidal day/night load profile.

    ``rate(t) = base * (1 + amplitude * sin(2π (t - phase) / period))``,
    clipped at zero.  With the default 24 h period this reproduces the
    diurnal congestion cycle visible in the spectral analysis of [19]; the
    tests use short periods so the cycle fits in a simulated minute.
    """

    def __init__(self, base_pps: float, amplitude: float = 0.5,
                 period: float = 86400.0, phase: float = 0.0) -> None:
        if base_pps <= 0:
            raise ConfigurationError(
                f"base rate must be positive, got {base_pps}")
        if not 0.0 <= amplitude <= 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1], got {amplitude}")
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self.base_pps = base_pps
        self.amplitude = amplitude
        self.period = period
        self.phase = phase

    def __call__(self, t: float) -> float:
        import math
        cycle = math.sin(2 * math.pi * (t - self.phase) / self.period)
        return max(0.0, self.base_pps * (1.0 + self.amplitude * cycle))

    @property
    def peak_pps(self) -> float:
        """Upper bound of the rate, for thinning."""
        return self.base_pps * (1.0 + self.amplitude)
