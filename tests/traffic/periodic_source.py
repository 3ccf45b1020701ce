"""A deterministic traffic source for tests that need known arrivals."""

from __future__ import annotations

from repro.net.host import Host
from repro.traffic.base import SINK_PORT, TrafficSource


class PeriodicSource(TrafficSource):
    """Sends ``burst`` packets of ``payload_bytes`` every ``interval`` s.

    It draws nothing from its random stream: one packet per tick is a
    constant-bit-rate stream, several are back-to-back batches.
    """

    def __init__(self, host: Host, destination: str, interval: float,
                 payload_bytes: int, burst: int = 1,
                 port: int = SINK_PORT) -> None:
        super().__init__(host, destination, port=port,
                         stream="traffic.periodic")
        self.interval = interval
        self.payload_bytes = payload_bytes
        self.burst = burst

    def _next_interval(self) -> float:
        return self.interval

    def _emit(self) -> None:
        for _ in range(self.burst):
            self._send(self.payload_bytes)
