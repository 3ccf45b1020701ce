"""Finite drop-tail FIFO queues.

This is the buffer of Figure 3 in the paper: probe losses happen here when
the buffer overflows.  Capacity can be expressed in packets (the paper's
``K``) or in bytes; both modes are exercised by the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.hooks import LifecycleObserver
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.monitor import TimeWeightedValue

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
        self.occupancy_packets = TimeWeightedValue(sim, 0.0)
        self.occupancy_bytes = TimeWeightedValue(sim, 0.0)
        # Sets the lifecycle property, which binds self.enqueue to the
        # no-hooks fast path until an observer is attached.
        self.lifecycle = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    def _occupancy_after(self, packet: Packet) -> int:
        if self.mode == MODE_PACKETS:
            return len(self._packets) + 1
        return self._bytes + packet.size_bytes

    @property
    def lifecycle(self) -> Optional[LifecycleObserver]:
        """Optional packet-lifecycle observer (see repro.net.hooks).

        Assigning an observer swaps ``self.enqueue`` to the hooked
        implementation; assigning ``None`` restores the no-hooks fast path,
        so the common untraced case pays zero per-packet hook checks on the
        enqueue step.  Both implementations do identical queue accounting —
        attaching an observer never changes drop decisions or occupancy.
        """
        return self._lifecycle

    @lifecycle.setter
    def lifecycle(self, observer: Optional[LifecycleObserver]) -> None:
        self._lifecycle = observer
        self.enqueue = (self._enqueue_fast if observer is None
                        else self._enqueue_hooked)

    def _enqueue_fast(self, packet: Packet) -> bool:
        """``enqueue`` with no lifecycle observer attached."""
        self.arrivals += 1
        if self._occupancy_after(packet) > self.capacity:
            self.drops += 1
            return False
        self._packets.append(packet)
        self._bytes += packet.size_bytes
        self._record_occupancy()
        return True

    def _enqueue_hooked(self, packet: Packet) -> bool:
        """``enqueue`` while a lifecycle observer is attached."""
        self.arrivals += 1
        if self._occupancy_after(packet) > self.capacity:
            self.drops += 1
            self._lifecycle.on_queue_drop(self, packet)
            return False
        self._packets.append(packet)
        self._bytes += packet.size_bytes
        self._record_occupancy()
        self._lifecycle.on_enqueued(self, packet)
        return True

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet`` if it fits; return False (and count) on drop.

        Rebound per instance by the ``lifecycle`` setter to the fast or
        hooked implementation; this class-level fallback only exists for
        introspection and subclasses that bypass ``__init__``.
        """
        return self._enqueue_fast(packet)

    def dequeue(self) -> Optional[Packet]:
        """Pop the head-of-line packet, or None if empty."""
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self._bytes -= packet.size_bytes
        self.departures += 1
        self._record_occupancy()
        return packet

    def _record_occupancy(self) -> None:
        self.occupancy_packets.update(float(len(self._packets)))
        self.occupancy_bytes.update(float(self._bytes))

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
