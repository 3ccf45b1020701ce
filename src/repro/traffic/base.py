"""Common machinery for traffic sources and sinks.

A :class:`TrafficSource` lives on a host and emits UDP packets toward a
sink; subclasses implement the arrival process by overriding
:meth:`TrafficSource._next_interval` / :meth:`TrafficSource._emit`.  The
sources model the *Internet stream* of the paper's Figure 3: everything that
shares the path with the probes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.kernel import restore_attributes
from repro.units import bytes_to_bits

#: UDP port conventionally used by traffic sinks.
SINK_PORT = 9000


class TrafficSink:
    """Counts packets and bytes arriving on a UDP port."""

    __setstate__ = restore_attributes

    def __init__(self, host: Host, port: int = SINK_PORT) -> None:
        self.host = host
        self.port = port
        self.packets = 0
        self.bytes = 0
        self._first_arrival: Optional[float] = None
        self._last_arrival: Optional[float] = None
        host.bind_udp(port, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes
        now = self.host.sim.now
        if self._first_arrival is None:
            self._first_arrival = now
        self._last_arrival = now

    def throughput_bps(self) -> float:
        """Average received rate in bits/s over the active period."""
        if self._first_arrival is None or self._last_arrival is None:
            return 0.0
        elapsed = self._last_arrival - self._first_arrival
        if elapsed <= 0:
            return 0.0
        return bytes_to_bits(self.bytes) / elapsed

    def close(self) -> None:
        """Release the UDP port."""
        self.host.unbind_udp(self.port)


class TrafficSource:
    """Base class: schedules its own emissions on the host's simulator.

    Parameters
    ----------
    host:
        Sending host.
    destination:
        Sink host name.
    port:
        Sink UDP port.
    stream:
        Name of the random stream this source draws from; distinct names
        give independent sources.
    """

    __setstate__ = restore_attributes

    def __init__(self, host: Host, destination: str,
                 port: int = SINK_PORT, stream: str = "traffic") -> None:
        self.host = host
        self.destination = destination
        self.port = port
        self.rng: np.random.Generator = host.sim.streams.get(stream)
        # Hot-path handles, bound once per source: the simulator and a
        # persistent bound reference to _tick, so self-rescheduling
        # allocates no closure per emission (see DESIGN.md, "Hot path").
        self._sim = host.sim
        self._tick_ref = self._tick
        self.packets_sent = 0
        self.bytes_sent = 0
        self._running = False

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin emitting; first arrival after one inter-arrival interval."""
        if self._running:
            raise ConfigurationError("source already started")
        self._running = True
        start_time = self._sim.now if at is None else at
        self._sim.call_at(start_time + self._next_interval(),
                          self._tick_ref, label="traffic-start")

    def stop(self) -> None:
        """Stop after the current event; pending packets still drain."""
        self._running = False

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    def _tick(self) -> None:
        if not self._running:
            return
        self._emit()
        self._sim.schedule(self._next_interval(), self._tick_ref,
                           label="traffic")

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _next_interval(self) -> float:
        """Seconds until the next emission event."""
        raise NotImplementedError

    def _emit(self) -> None:
        """Send whatever this source sends at an emission event."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _send(self, payload_bytes: int) -> None:
        """Send one UDP packet of ``payload_bytes`` payload to the sink."""
        self.host.send_udp(self.destination, src_port=self.port,
                           dst_port=self.port, payload_bytes=payload_bytes)
        self.packets_sent += 1
        self.bytes_sent += payload_bytes
