"""Packet taps: per-interface packet capture for the simulator.

A :class:`PacketTap` is an interface's lifecycle observer (see
:mod:`repro.net.hooks`) and records ``(time, uid, kind, src, dst, size)``
for every packet delivered across it — the simulator's tcpdump.
Captures export to CSV and support simple interarrival/throughput
queries, which the queue-dynamics analyses and debugging sessions use.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.net.hooks import LifecycleObserver
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.units import bytes_to_bits


class CaptureRecord(NamedTuple):
    """One captured packet crossing (an immutable tuple)."""

    time: float
    uid: int
    kind: str
    src: str
    dst: str
    size_bytes: int


class PacketTap(LifecycleObserver):
    """Records every packet delivered through one interface.

    The tap is the interface's lifecycle observer and records in
    :meth:`on_delivered`, which fires after propagation, so it sees
    exactly the packets the receiving node sees.  The other milestones
    are the protocol's no-ops.  An interface holds one observer: tapping
    an interface that already has one raises
    :class:`~repro.errors.ConfigurationError`.

    Parameters
    ----------
    interface:
        Interface to monitor.
    kinds:
        Optional filter; only these packet kinds are recorded.
    """

    def __init__(self, interface: Interface,
                 kinds: Optional[set] = None) -> None:
        if interface.lifecycle is not None:
            raise ConfigurationError(
                f"interface {interface.name} already has a lifecycle "
                "observer")
        self.interface = interface
        self.kinds = set(kinds) if kinds else None
        self.records: list[CaptureRecord] = []
        interface.lifecycle = self

    def on_delivered(self, interface: Interface, packet: Packet) -> None:
        if self.kinds is None or packet.kind in self.kinds:
            self.records.append(CaptureRecord(
                time=interface._sim.now, uid=packet.uid,
                kind=packet.kind, src=packet.src, dst=packet.dst,
                size_bytes=packet.size_bytes))

    def close(self) -> None:
        """Unhook the tap; recorded packets stay available."""
        if self.interface.lifecycle is self:
            self.interface.lifecycle = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def times(self) -> np.ndarray:
        """Capture timestamps in order."""
        return np.asarray([r.time for r in self.records])

    def interarrival_times(self) -> np.ndarray:
        """Gaps between consecutive captured packets."""
        times = self.times()
        if times.size < 2:
            raise AnalysisError("need at least two captures")
        return np.diff(times)

    def throughput_bps(self) -> float:
        """Average captured rate over the capture span."""
        if len(self.records) < 2:
            return 0.0
        span = self.records[-1].time - self.records[0].time
        if span <= 0:
            return 0.0
        total_bits = sum(bytes_to_bits(r.size_bytes) for r in self.records)
        return total_bits / span

    def save_csv(self, path: Union[str, Path]) -> None:
        """Write the capture as CSV (tcpdump-lite)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", "uid", "kind", "src", "dst",
                             "size_bytes"])
            for r in self.records:
                writer.writerow([f"{r.time:.9f}", r.uid, r.kind, r.src,
                                 r.dst, r.size_bytes])
