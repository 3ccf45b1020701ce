"""Bulk-transfer ("FTP") traffic: window bursts of large packets.

The paper's workload estimates show cross-traffic arriving in multiples of
~512-byte packets (Figures 8 and 9): bulk transfers whose windows arrive
back-to-back at the bottleneck.  This source models that directly: file
transfer sessions arrive as a Poisson process; each session emits its file
as windows of ``window`` packets sent back-to-back, one window per
``window_interval`` (standing in for the transfer's round-trip clock).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.traffic.base import SINK_PORT, TrafficSource
from repro.traffic.sizes import FTP_PAYLOAD_BYTES


class FtpSource(TrafficSource):
    """Poisson session arrivals, each a windowed bulk transfer.

    Parameters
    ----------
    session_rate:
        New transfers per second.
    mean_file_packets:
        Mean file size in packets (geometric).
    window:
        Packets sent back-to-back per window.
    window_interval:
        Seconds between successive windows of one transfer.
    payload_bytes:
        Data packet payload size (512 B default).
    """

    def __init__(self, host: Host, destination: str, session_rate: float,
                 mean_file_packets: float = 20.0, window: int = 4,
                 window_interval: float = 0.25,
                 payload_bytes: int = FTP_PAYLOAD_BYTES,
                 port: int = SINK_PORT, stream: str = "traffic.ftp") -> None:
        super().__init__(host, destination, port=port, stream=stream)
        # A NaN passes plain comparisons, so finiteness is checked too; the
        # file size comes first because a mix derives the rate from it.
        if not (math.isfinite(mean_file_packets) and mean_file_packets >= 1):
            raise ConfigurationError(
                f"mean_file_packets must be finite and >= 1, "
                f"got {mean_file_packets!r}")
        if not (math.isfinite(session_rate) and session_rate > 0):
            raise ConfigurationError(
                f"session_rate must be finite and positive, "
                f"got {session_rate!r}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not (math.isfinite(window_interval) and window_interval > 0):
            raise ConfigurationError(
                f"window_interval must be finite and positive, "
                f"got {window_interval!r}")
        self.session_rate = session_rate
        self.mean_file_packets = mean_file_packets
        self.window = window
        self.window_interval = window_interval
        self.payload_bytes = payload_bytes
        self.sessions_started = 0
        self.sessions_finished = 0
        self._mean_session_interval = 1.0 / session_rate
        self._file_size_p = 1.0 / mean_file_packets

    # The base-class timer drives *session arrivals*; each session then
    # schedules its own window emissions.
    def _next_interval(self) -> float:
        return self.rng.exponential(self._mean_session_interval)

    def _emit(self) -> None:
        remaining = self.rng.geometric(self._file_size_p)
        self.sessions_started += 1
        _FtpTransfer(self, remaining)


class _FtpTransfer:
    """One in-flight file transfer: its remaining-packet counter plus one
    persistent bound tick callback, so a transfer of N windows costs one
    object instead of N closures."""

    __slots__ = ("source", "remaining", "_tick_ref")

    def __init__(self, source: FtpSource, remaining: int) -> None:
        self.source = source
        self.remaining = remaining
        self._tick_ref = self._tick
        self._tick()

    def _tick(self) -> None:
        source = self.source
        if not source.running:
            return  # stop() halts in-flight transfers too
        burst = min(source.window, self.remaining)
        for _ in range(burst):
            source._send(source.payload_bytes)
        self.remaining -= burst
        if self.remaining > 0:
            source._sim.schedule(source.window_interval, self._tick_ref,
                                 label="ftp-window")
        else:
            source.sessions_finished += 1
