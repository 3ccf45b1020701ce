"""traceroute over the simulated network (Tables 1 and 2).

Classic Van Jacobson traceroute: UDP datagrams to an (almost certainly)
unused high port with TTL 1, 2, 3, ...; each hop returns ICMP time-exceeded
and the destination returns ICMP port-unreachable, revealing the route and
per-hop round-trip times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.icmp import ErrorContext
from repro.net.packet import (
    KIND_ICMP_PORT_UNREACHABLE,
    KIND_ICMP_TIME_EXCEEDED,
    Packet,
)
from repro.net.routing import Network
from repro.units import seconds_to_ms

#: Base destination port, mirroring classic traceroute's 33434.
PROBE_PORT_BASE = 33434

#: Source port the traceroute probes use.
SOURCE_PORT = 33000

#: How long traceroute waits for each TTL's answer, seconds.
HOP_TIMEOUT = 3.0


@dataclass
class Hop:
    """One traceroute line: hop index, reporting node, rtt (seconds)."""

    index: int
    node: Optional[str]
    rtt: Optional[float]

    def format(self) -> str:
        """Render like the classic tool ('5  Ithaca.NY.NSS.NSF.NET  52.1 ms')."""
        if self.node is None:
            return f"{self.index:3d}  *"
        return (f"{self.index:3d}  {self.node}  "
                f"{seconds_to_ms(self.rtt):.1f} ms")


def traceroute(network: Network, source: str, destination: str,
               max_hops: int = 30) -> list[Hop]:
    """Run traceroute from ``source`` to ``destination``.

    Returns one :class:`Hop` per TTL until the destination answers with
    port-unreachable (or ``max_hops`` is reached).  Advances the shared
    simulator clock by up to ``HOP_TIMEOUT`` per TTL.
    """
    src_host = network.host(source)
    network.node(destination)  # raise early on unknown destination

    hops: list[Hop] = []
    reached = False

    for ttl in range(1, max_hops + 1):
        answer: dict[str, object] = {}
        sent_at = src_host.sim.now

        def on_icmp(packet: Packet, _answer=answer, _sent=sent_at) -> None:
            if packet.kind not in (KIND_ICMP_TIME_EXCEEDED,
                                   KIND_ICMP_PORT_UNREACHABLE):
                return
            context = packet.payload
            if not isinstance(context, ErrorContext):
                return
            if context.original_src != src_host.name:
                return
            if context.original_src_port != SOURCE_PORT:
                return
            if "node" not in _answer:  # first answer wins
                _answer["node"] = packet.src
                _answer["rtt"] = src_host.sim.now - _sent
                _answer["kind"] = packet.kind

        src_host.add_icmp_listener(on_icmp)
        src_host.send_udp(destination, src_port=SOURCE_PORT,
                          dst_port=PROBE_PORT_BASE + ttl,
                          payload_bytes=12, ttl=ttl)
        deadline = src_host.sim.now + HOP_TIMEOUT
        while "node" not in answer and src_host.sim.now < deadline \
                and src_host.sim.pending_events() > 0:
            next_step = min(deadline, src_host.sim.now + HOP_TIMEOUT / 50.0)
            src_host.sim.run(until=next_step)
        src_host.icmp_listeners.remove(on_icmp)

        if "node" in answer:
            hops.append(Hop(index=ttl, node=str(answer["node"]),
                            rtt=float(answer["rtt"])))  # type: ignore[arg-type]
            if answer["kind"] == KIND_ICMP_PORT_UNREACHABLE:
                reached = True
                break
        else:
            hops.append(Hop(index=ttl, node=None, rtt=None))

    if not reached and hops and hops[-1].node != destination:
        # Mirror real traceroute: report what we have; caller inspects.
        pass
    return hops


def route_names(hops: list[Hop]) -> list[str]:
    """The node names of the responding hops, in order."""
    return [hop.node for hop in hops if hop.node is not None]


def format_route_table(hops: list[Hop], title: str = "") -> str:
    """Render hops as a table akin to the paper's Table 1 / Table 2."""
    lines = []
    if title:
        lines.append(title)
    lines.extend(hop.format() for hop in hops)
    return "\n".join(lines)
