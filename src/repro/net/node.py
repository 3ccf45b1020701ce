"""Nodes: packet forwarding, TTL handling, and ICMP generation.

A :class:`Node` is a router; :class:`repro.net.host.Host` extends it with
UDP port demultiplexing and local clocks.  Forwarding is next-hop based:
``routing[dst] -> peer name -> interface``.  Tables are filled in by
:meth:`repro.net.routing.Network.compute_routes`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import RoutingError
from repro.net import icmp
from repro.net.hooks import LifecycleObserver
from repro.net.link import Interface
from repro.net.packet import (
    KIND_ICMP_ECHO,
    KIND_ICMP_TIME_EXCEEDED,
    Packet,
)
from repro.sim.kernel import Simulator, restore_attributes

#: Signature of local ICMP delivery callbacks.
IcmpListener = Callable[[Packet], None]


class Node:
    """A store-and-forward network node (router).

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Unique node name; doubles as the node's address.
    processing_delay:
        Fixed per-packet forwarding latency in seconds (switch fabric /
        route lookup).  Applied before the packet is handed to the output
        interface.
    """

    __setstate__ = restore_attributes

    def __init__(self, sim: Simulator, name: str,
                 processing_delay: float = 0.0) -> None:
        self.sim = sim
        self.name = name
        self.processing_delay = processing_delay
        self.interfaces: dict[str, Interface] = {}
        self.routing: dict[str, str] = {}
        self.icmp_listeners: list[IcmpListener] = []
        self.forwarded = 0
        self.no_route_drops = 0
        self.ttl_drops = 0
        #: Optional packet-lifecycle observer (see repro.net.hooks).
        self.lifecycle: Optional[LifecycleObserver] = None
        # Packets waiting out the processing delay, FIFO: every forward at
        # this node has the same delay, so the pending events complete in
        # schedule order and one persistent callback + deque replaces a
        # closure per forwarded packet (see DESIGN.md, "Hot path").
        self._fwd_pending: deque[tuple[Packet, Interface]] = deque()
        self._fwd_ref = self._forward_done
        self._fwd_label = f"fwd {name}"

    # ------------------------------------------------------------------
    # Topology wiring (used by Network)
    # ------------------------------------------------------------------
    def add_interface(self, peer_name: str, interface: Interface) -> None:
        """Register the interface whose link leads to ``peer_name``."""
        self.interfaces[peer_name] = interface

    def set_next_hop(self, destination: str, peer_name: str) -> None:
        """Point the route for ``destination`` at neighbor ``peer_name``."""
        if peer_name not in self.interfaces:
            raise RoutingError(
                f"{self.name}: no interface toward {peer_name!r}")
        self.routing[destination] = peer_name

    def interface_to(self, peer_name: str) -> Interface:
        """The interface whose link leads to direct neighbor ``peer_name``."""
        try:
            return self.interfaces[peer_name]
        except KeyError:
            raise RoutingError(
                f"{self.name}: not adjacent to {peer_name!r}") from None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, ingress: Optional[Interface] = None) -> None:
        """Entry point for packets arriving from a link."""
        if packet.record is not None:
            packet.record.append(self.name)
        if packet.dst == self.name:
            if self.lifecycle is not None:
                self.lifecycle.on_received(self, packet)
            self.deliver_local(packet)
            return
        packet.ttl -= 1
        packet.hops += 1
        if packet.ttl <= 0:
            self.ttl_drops += 1
            self._report_error(KIND_ICMP_TIME_EXCEEDED, packet)
            return
        self._forward(packet)

    def originate(self, packet: Packet) -> None:
        """Send a locally generated packet (no TTL decrement at hop zero)."""
        if self.lifecycle is not None:
            self.lifecycle.on_created(self, packet)
        if packet.dst == self.name:
            self.deliver_local(packet)
            return
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        peer_name = self.routing.get(packet.dst)
        if peer_name is None:
            self.no_route_drops += 1
            return
        interface = self.interfaces[peer_name]
        self.forwarded += 1
        if self.processing_delay > 0:
            self._fwd_pending.append((packet, interface))
            self.sim.schedule(self.processing_delay, self._fwd_ref,
                              label=self._fwd_label)
        else:
            interface.send(packet)

    def _forward_done(self) -> None:
        packet, interface = self._fwd_pending.popleft()
        interface.send(packet)

    def _report_error(self, kind: str, offending: Packet) -> None:
        """Send an ICMP error about ``offending`` back to its source."""
        if offending.is_icmp_error:
            return  # never generate errors about errors (RFC 1122)
        error = icmp.make_error(kind, reporter=self.name,
                                offending=offending, created_at=self.sim.now)
        self.originate(error)

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------
    def deliver_local(self, packet: Packet) -> None:
        """Handle a packet addressed to this node."""
        if packet.kind == KIND_ICMP_ECHO:
            reply = icmp.make_echo_reply(packet, created_at=self.sim.now)
            self.originate(reply)
            return
        if packet.is_icmp:
            for listener in self.icmp_listeners:
                listener(packet)
            return
        # Base nodes have no transport layer; Host overrides for UDP.

    def add_icmp_listener(self, listener: IcmpListener) -> None:
        """Receive locally delivered ICMP replies and errors."""
        self.icmp_listeners.append(listener)

    def __repr__(self) -> str:
        return f"<Node {self.name} deg={len(self.interfaces)}>"
