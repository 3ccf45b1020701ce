"""Finite drop-tail FIFO queues.

This is the buffer of Figure 3 in the paper: probe losses happen here when
the buffer overflows.  Capacity can be expressed in packets (the paper's
``K``) or in bytes; both modes are exercised by the ablation benchmarks.

Each queue integrates its own packet and byte occupancy over time, which
is how the network substrate is validated (e.g. that a queue's
time-averaged occupancy matches M/D/1 theory) and what the manifest's
queue statistics report.  Every enqueue and dequeue of the event engine
passes through here, so the integration is inline: one clock read and one
span per change, feeding both integrals.  A packet that finds its
transmitter idle crosses the empty queue in one call,
:meth:`DropTailQueue.pass_through`, instead of an enqueue and a dequeue.
The queue has no observer of its own: the interface that owns it reports
its ``enqueued`` and ``queue_drop`` milestones (see :mod:`repro.net.hooks`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.sim.kernel import Simulator

#: Capacity accounting modes.
MODE_PACKETS = "packets"
MODE_BYTES = "bytes"


class DropTailQueue:
    """A finite FIFO queue with tail-drop and occupancy accounting.

    Parameters
    ----------
    sim:
        Owning simulator (used for time-weighted occupancy stats).
    capacity:
        Maximum occupancy.  Interpreted per ``mode``.
    mode:
        ``"packets"`` or ``"bytes"``.
    name:
        Diagnostic label.
    """

    __slots__ = ("_sim", "capacity", "mode", "name", "_packets", "_bytes",
                 "arrivals", "drops", "departures", "_started",
                 "_last_change", "_packet_seconds", "_byte_seconds",
                 "_max_packets")

    def __init__(self, sim: Simulator, capacity: int,
                 mode: str = MODE_PACKETS, name: str = "") -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"queue capacity must be positive, got {capacity}")
        if mode not in (MODE_PACKETS, MODE_BYTES):
            raise ConfigurationError(f"unknown queue mode {mode!r}")
        self._sim = sim
        self.capacity = capacity
        self.mode = mode
        self.name = name
        self._packets: deque[Packet] = deque()
        self._bytes = 0
        self.arrivals = 0
        self.drops = 0
        self.departures = 0
        # Occupancy integrals (count x seconds) up to ``_last_change``,
        # the last enqueue or dequeue, and the packet peak.
        self._started = self._last_change = sim.now
        self._packet_seconds = 0.0
        self._byte_seconds = 0.0
        self._max_packets = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    def _occupancy_after(self, packet: Packet) -> int:
        if self.mode == MODE_PACKETS:
            return len(self._packets) + 1
        return self._bytes + packet.size_bytes

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet`` if it fits; return False (and count) on drop."""
        self.arrivals += 1
        if self._occupancy_after(packet) > self.capacity:
            self.drops += 1
            return False
        self._integrate()
        packets = self._packets
        packets.append(packet)
        self._bytes += packet.size_bytes
        if len(packets) > self._max_packets:
            self._max_packets = len(packets)
        return True

    def pass_through(self, packet: Packet) -> bool:
        """Admit ``packet`` into an empty queue and hand it straight out.

        The caller's transmitter is idle, so the queue is empty and the
        packet leaves the instant it arrives.  Returns False (and counts a
        drop) when it does not fit.  This is the accounting of an enqueue
        and a dequeue of ``packet`` at one instant, without the deque
        traffic.  Both ``_integrate`` calls that pair makes would add only
        +0.0 to the integrals (an empty queue holds 0 packets and 0 bytes
        over the span since the last change, and the packet is held for a
        span of 0.0), and adding +0.0 leaves a non-negative float
        unchanged, so only ``_last_change`` moves.
        """
        self.arrivals += 1
        # _occupancy_after on an empty queue: a packet-mode buffer always
        # has room, a byte-mode one drops a packet larger than the buffer.
        if (packet.size_bytes if self.mode == MODE_BYTES else 1) \
                > self.capacity:
            self.drops += 1
            return False
        self._last_change = self._sim.now
        if not self._max_packets:
            self._max_packets = 1
        self.departures += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head-of-line packet, or None if empty."""
        if not self._packets:
            return None
        self._integrate()
        packet = self._packets.popleft()
        self._bytes -= packet.size_bytes
        self.departures += 1
        return packet

    def _integrate(self) -> None:
        """Add the occupancy held since the last change to the integrals.

        Called just before every change, so each integral gains the count
        held over the span that ends now.
        """
        now = self._sim.now
        span = now - self._last_change
        self._packet_seconds += len(self._packets) * span
        self._byte_seconds += self._bytes * span
        self._last_change = now

    def _time_mean(self, integral: float, held: int) -> float:
        now = self._sim.now
        total = now - self._started
        if total <= 0:
            return float(held)
        return (integral + held * (now - self._last_change)) / total

    def mean_packets(self) -> float:
        """Time-weighted mean occupancy in packets since creation."""
        return self._time_mean(self._packet_seconds, len(self._packets))

    def max_packets(self) -> float:
        """Largest occupancy in packets seen so far."""
        return float(self._max_packets)

    def mean_bytes(self) -> float:
        """Time-weighted mean occupancy in bytes since creation."""
        return self._time_mean(self._byte_seconds, self._bytes)

    # ------------------------------------------------------------------
    @property
    def loss_fraction(self) -> float:
        """Fraction of arrivals dropped so far."""
        if self.arrivals == 0:
            return 0.0
        return self.drops / self.arrivals

    def __repr__(self) -> str:
        return (f"<DropTailQueue {self.name!r} {len(self._packets)} pkts/"
                f"{self._bytes}B of {self.capacity} {self.mode}, "
                f"{self.drops} drops>")


def queue_summary(arrivals: int, drops: int, departures: int,
                  mean_packets: float, max_packets: float,
                  mean_bytes: float) -> Dict[str, float]:
    """One queue's statistics as the manifest records them.

    The single spelling of the per-queue dict: the event engine fills it
    from a :class:`DropTailQueue`'s counters and the analytic engine from
    its bottleneck passes, so both report the same keys in the same order.
    Occupancy means are time-weighted over the caller's window; values are
    plain floats so the dict drops straight into JSON.
    """
    return {
        "arrivals": float(arrivals),
        "drops": float(drops),
        "departures": float(departures),
        "loss_fraction": drops / arrivals if arrivals else 0.0,
        "occupancy_mean_pkts": mean_packets,
        "occupancy_max_pkts": float(max_packets),
        "occupancy_mean_bytes": mean_bytes,
    }
