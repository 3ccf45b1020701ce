"""End hosts: UDP sockets and local clocks.

A :class:`Host` adds to :class:`~repro.net.node.Node` the two things the
measurement tooling needs: UDP port demultiplexing (NetDyn's source and echo
agents are UDP applications) and a host clock, which can be quantized to
model the DECstation 5000's 3.906 ms resolution.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import PortInUseError
from repro.net import icmp
from repro.net.node import Node
from repro.net.packet import (
    KIND_ICMP_PORT_UNREACHABLE,
    KIND_UDP,
    Packet,
    make_udp,
)
from repro.net.clocks import Clock, PerfectClock
from repro.sim.kernel import Simulator

#: Signature of UDP receive callbacks: ``callback(packet)``.
UdpHandler = Callable[[Packet], None]


class Host(Node):
    """A node with a UDP stack and a local clock.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Unique host name / address.
    clock:
        Local clock model; defaults to a perfect (unquantized) clock.
    """

    def __init__(self, sim: Simulator, name: str,
                 clock: Optional[Clock] = None) -> None:
        super().__init__(sim, name)
        self.clock: Clock = clock if clock is not None else PerfectClock(sim)
        self._udp_bindings: dict[int, UdpHandler] = {}
        self.udp_received = 0
        self.udp_sent = 0

    # ------------------------------------------------------------------
    # UDP API
    # ------------------------------------------------------------------
    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        """Register ``handler`` for datagrams arriving on ``port``."""
        if port in self._udp_bindings:
            raise PortInUseError(f"{self.name}: UDP port {port} already bound")
        self._udp_bindings[port] = handler

    def unbind_udp(self, port: int) -> None:
        """Release ``port``; unknown ports are ignored."""
        self._udp_bindings.pop(port, None)

    def send_udp(self, dst: str, src_port: int, dst_port: int,
                 payload: Any = None, payload_bytes: int = 0,
                 ttl: int = 64) -> Packet:
        """Create and originate a UDP datagram; returns the packet."""
        packet = make_udp(src=self.name, dst=dst, src_port=src_port,
                          dst_port=dst_port, payload=payload,
                          payload_bytes=payload_bytes,
                          created_at=self.sim.now, ttl=ttl)
        self.udp_sent += 1
        self.originate(packet)
        return packet

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------
    def deliver_local(self, packet: Packet) -> None:
        if packet.kind == KIND_UDP:
            handler = None
            if packet.dst_port is not None:
                handler = self._udp_bindings.get(packet.dst_port)
            if handler is None:
                error = icmp.make_error(KIND_ICMP_PORT_UNREACHABLE,
                                        reporter=self.name, offending=packet,
                                        created_at=self.sim.now)
                self.originate(error)
                return
            self.udp_received += 1
            handler(packet)
            return
        super().deliver_local(packet)

    def __repr__(self) -> str:
        return (f"<Host {self.name} ports={sorted(self._udp_bindings)} "
                f"deg={len(self.interfaces)}>")
