"""Packet representation shared by the whole network substrate.

A packet records its *wire size* in bytes (payload plus protocol overhead);
links serialize packets at ``wire size / link rate``.  The paper's probe
packets carry a 32-byte payload but occupy 72 bytes on the wire (Bolot
computes ``b_n = mu * 35ms - 72 * 8`` bits), so the UDP/IP/link overhead
constant below is 40 bytes.

``Packet`` is a hand-written ``__slots__`` class: the forwarding path creates
one per datagram and touches its fields at every hop, so instance size and
attribute access dominate the substrate's per-packet cost (see DESIGN.md,
"Hot path").
"""

from __future__ import annotations

import itertools

from repro.units import BITS_PER_BYTE
from typing import Any, Optional

#: IPv4 header (20 B) + UDP header (8 B).
UDP_IP_HEADER_BYTES = 28

#: Extra link-level framing assumed by the paper's arithmetic (72 B wire size
#: for a 32 B payload probe): 20 IP + 8 UDP + 12 framing.
LINK_FRAMING_BYTES = 12

#: Total per-packet overhead for UDP datagrams, matching the paper's P = 72 B.
UDP_WIRE_OVERHEAD_BYTES = UDP_IP_HEADER_BYTES + LINK_FRAMING_BYTES

#: Default initial TTL, as in classic BSD stacks.
DEFAULT_TTL = 64

#: Packet kinds understood by nodes.
KIND_UDP = "udp"
KIND_ICMP_ECHO = "icmp_echo"
KIND_ICMP_ECHO_REPLY = "icmp_echo_reply"
KIND_ICMP_TIME_EXCEEDED = "icmp_time_exceeded"
KIND_ICMP_PORT_UNREACHABLE = "icmp_port_unreachable"

ICMP_KINDS = frozenset({
    KIND_ICMP_ECHO,
    KIND_ICMP_ECHO_REPLY,
    KIND_ICMP_TIME_EXCEEDED,
    KIND_ICMP_PORT_UNREACHABLE,
})

ICMP_ERROR_KINDS = frozenset({
    KIND_ICMP_TIME_EXCEEDED,
    KIND_ICMP_PORT_UNREACHABLE,
})

_uid_counter = itertools.count(1)


def reset_packet_uids(start: int = 1) -> None:
    """Restart the uid counter at ``start``.

    Called by ``Simulator.__init__`` so that the uids a cell's
    :class:`~repro.obs.lifecycle.PacketLifecycleTracer` records depend only
    on that cell's own packet sequence — two identical cells run
    back-to-back in one process emit identical lifecycle traces.  A run
    restored from a warm-up snapshot restarts it at :func:`next_packet_uid`
    as read when the snapshot was taken.
    """
    global _uid_counter
    _uid_counter = itertools.count(start)


def next_packet_uid() -> int:
    """The uid the next packet will get (the counter does not advance)."""
    uid = next(_uid_counter)
    reset_packet_uids(uid)
    return uid


class Packet:
    """A network packet.

    Attributes
    ----------
    src, dst:
        Node names of the original sender and the final destination.
    kind:
        One of the ``KIND_*`` constants; selects the local delivery path.
    size_bytes:
        Wire size, including all protocol overhead.
    size_bits:
        Wire size in bits, computed once at construction (links read it
        at every hop).  ``size_bytes`` is never reassigned after a packet
        is built, so the two stay consistent.
    ttl:
        Remaining hop budget; routers decrement it and emit ICMP
        time-exceeded when it reaches zero.
    src_port, dst_port:
        UDP ports (``None`` for non-UDP packets).
    payload:
        Arbitrary application object (bytes for NetDyn probes).
    created_at:
        Simulation time at which the packet was created by its sender.
    hops:
        Number of forwarding operations performed so far.
    context:
        For ICMP errors: information about the offending packet.
    record:
        When a list, every node the packet visits appends its name — the
        IP record-route option (how the paper obtained Table 1 via ping).
    uid:
        Per-simulation unique id (assigned from the uid counter when not
        given explicitly).
    """

    __slots__ = ("src", "dst", "kind", "size_bytes", "size_bits", "ttl",
                 "src_port", "dst_port", "payload", "created_at", "hops",
                 "context", "record", "uid")

    def __init__(self, src: str, dst: str, kind: str = KIND_UDP,
                 size_bytes: int = UDP_WIRE_OVERHEAD_BYTES,
                 ttl: int = DEFAULT_TTL,
                 src_port: Optional[int] = None,
                 dst_port: Optional[int] = None,
                 payload: Any = None, created_at: float = 0.0,
                 hops: int = 0, context: Any = None,
                 record: Optional[list] = None,
                 uid: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size_bytes = size_bytes
        self.size_bits = size_bytes * BITS_PER_BYTE
        self.ttl = ttl
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.created_at = created_at
        self.hops = hops
        self.context = context
        self.record = record
        self.uid = next(_uid_counter) if uid is None else uid

    @property
    def is_icmp(self) -> bool:
        """True for all ICMP packet kinds."""
        return self.kind in ICMP_KINDS

    @property
    def is_icmp_error(self) -> bool:
        """True for ICMP error kinds (time exceeded, port unreachable)."""
        return self.kind in ICMP_ERROR_KINDS

    def __repr__(self) -> str:  # compact, log-friendly
        port = ""
        if self.kind == KIND_UDP:
            port = f" {self.src_port}->{self.dst_port}"
        return (f"<Packet #{self.uid} {self.kind} {self.src}->{self.dst}"
                f"{port} {self.size_bytes}B ttl={self.ttl}>")


def make_udp(src: str, dst: str, src_port: int, dst_port: int,
             payload: Any = None, payload_bytes: int = 0,
             created_at: float = 0.0, ttl: int = DEFAULT_TTL) -> Packet:
    """Build a UDP packet; wire size = payload + UDP/IP/framing overhead."""
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    return Packet(src=src, dst=dst, kind=KIND_UDP,
                  size_bytes=payload_bytes + UDP_WIRE_OVERHEAD_BYTES,
                  ttl=ttl, src_port=src_port, dst_port=dst_port,
                  payload=payload, created_at=created_at)
