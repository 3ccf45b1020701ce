"""Responsive (congestion-controlled) bulk cross traffic.

Wraps :mod:`repro.net.transport`'s mini-TCP into a traffic source: file
transfer sessions arrive as a Poisson process, and each one runs a full
windowed transfer with slow start and loss recovery.  Unlike
:class:`repro.traffic.ftp.FtpSource`, this traffic *backs off* when probes
congest the bottleneck — the behavior real 1992 bulk traffic had, and the
knob behind the responsive-vs-open-loop ablation benchmark.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.net.transport import MiniTcpReceiver, MiniTcpSender

#: First port used for transfer connections.
BASE_PORT = 20_000


class ResponsiveBulkSource:
    """Poisson session arrivals, each a mini-TCP bulk transfer.

    Parameters
    ----------
    sender, receiver:
        The two end hosts of the transfers.
    session_rate:
        New transfers per second (exponential inter-arrivals).
    mean_file_segments:
        Mean file size in segments (geometric).
    segment_bytes:
        Data segment payload size.
    stream:
        Random stream name.
    max_concurrent:
        Upper bound on simultaneously active transfers (ports in use).
    base_port:
        First connection port; give each source on a shared pair of
        hosts (e.g. one per direction) a disjoint port range.

    Every launched transfer's :class:`MiniTcpSender` stays in
    :attr:`senders`, in launch order, so its outcome and
    :class:`~repro.net.transport.TransferStats` can be read after the run;
    a finished transfer still closes both ends and releases its port.
    """

    def __init__(self, sender: Host, receiver: Host, session_rate: float,
                 mean_file_segments: float = 20.0, segment_bytes: int = 512,
                 stream: str = "traffic.tcp", max_concurrent: int = 64,
                 base_port: int = BASE_PORT,
                 max_window: float = 16.0) -> None:
        if not (math.isfinite(session_rate) and session_rate > 0):
            raise ConfigurationError(
                f"session_rate must be finite and positive, "
                f"got {session_rate!r}")
        if not (math.isfinite(mean_file_segments) and mean_file_segments >= 1):
            raise ConfigurationError(
                f"mean_file_segments must be finite and >= 1, "
                f"got {mean_file_segments!r}")
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent}")
        self.sender = sender
        self.receiver = receiver
        self.session_rate = session_rate
        self.mean_file_segments = mean_file_segments
        self.segment_bytes = segment_bytes
        self.max_concurrent = max_concurrent
        self.max_window = max_window
        self.rng = sender.sim.streams.get(stream)
        self._ports = itertools.count(base_port)
        self._active: list[tuple[MiniTcpSender, MiniTcpReceiver]] = []
        self.senders: list[MiniTcpSender] = []
        self._running = False
        self.sessions_skipped = 0

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin launching transfer sessions."""
        if self._running:
            raise ConfigurationError("source already started")
        self._running = True
        start_time = self.sender.sim.now if at is None else at
        self.sender.sim.call_at(start_time + self._next_interval(),
                                self._launch, label="tcp-session")

    def stop(self) -> None:
        """Stop launching new sessions; active transfers run to completion."""
        self._running = False

    def _next_interval(self) -> float:
        return float(self.rng.exponential(1.0 / self.session_rate))

    def _launch(self) -> None:
        if not self._running:
            return
        self._reap_finished()
        if len(self._active) < self.max_concurrent:
            segments = int(self.rng.geometric(1.0 / self.mean_file_segments))
            port = next(self._ports)
            receiver = MiniTcpReceiver(self.receiver, port=port)
            sender = MiniTcpSender(self.sender, self.receiver.name,
                                   port=port, total_segments=segments,
                                   segment_bytes=self.segment_bytes,
                                   max_window=self.max_window)
            sender.start()
            self._active.append((sender, receiver))
            self.senders.append(sender)
        else:
            self.sessions_skipped += 1
        self.sender.sim.schedule(self._next_interval(), self._launch,
                                 label="tcp-session")

    def _reap_finished(self) -> None:
        still_active = []
        for sender, receiver in self._active:
            if sender.finished:
                sender.close()
                receiver.close()
            else:
                still_active.append((sender, receiver))
        self._active = still_active
