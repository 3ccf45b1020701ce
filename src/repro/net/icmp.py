"""ICMP message construction.

Only the message types the paper's tooling needs are modeled: echo /
echo-reply (ping, and the grouped prober of Mukherjee [19]), time-exceeded
(traceroute), and port-unreachable (traceroute's terminal reply).
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import (
    KIND_ICMP_ECHO,
    KIND_ICMP_ECHO_REPLY,
    KIND_ICMP_PORT_UNREACHABLE,
    KIND_ICMP_TIME_EXCEEDED,
    Packet,
)

#: Wire size of an ICMP echo request/reply (classic ping default payload).
ECHO_SIZE_BYTES = 64

#: Wire size of an ICMP error message (IP header + 8 bytes of the original).
ERROR_SIZE_BYTES = 56


class EchoContext:
    """Identifier/sequence pair carried by echo requests and replies."""

    __slots__ = ("ident", "seq")

    def __init__(self, ident: int, seq: int) -> None:
        self.ident = ident
        self.seq = seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchoContext):
            return NotImplemented
        return self.ident == other.ident and self.seq == other.seq

    def __hash__(self) -> int:
        return hash((self.ident, self.seq))

    def __repr__(self) -> str:
        return f"EchoContext(ident={self.ident!r}, seq={self.seq!r})"


class ErrorContext:
    """What an ICMP error reports about the packet that triggered it."""

    __slots__ = ("reporter", "original_uid", "original_src", "original_dst",
                 "original_src_port", "original_dst_port")

    def __init__(self, reporter: str, original_uid: int, original_src: str,
                 original_dst: str, original_src_port: Optional[int],
                 original_dst_port: Optional[int]) -> None:
        self.reporter = reporter
        self.original_uid = original_uid
        self.original_src = original_src
        self.original_dst = original_dst
        self.original_src_port = original_src_port
        self.original_dst_port = original_dst_port

    def _key(self) -> tuple:
        return (self.reporter, self.original_uid, self.original_src,
                self.original_dst, self.original_src_port,
                self.original_dst_port)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ErrorContext):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"ErrorContext(reporter={self.reporter!r}, "
                f"original_uid={self.original_uid!r}, "
                f"original_src={self.original_src!r}, "
                f"original_dst={self.original_dst!r}, "
                f"original_src_port={self.original_src_port!r}, "
                f"original_dst_port={self.original_dst_port!r})")


def make_echo(src: str, dst: str, ident: int, seq: int, created_at: float,
              size_bytes: int = ECHO_SIZE_BYTES,
              record_route: bool = False) -> Packet:
    """Build an ICMP echo request.

    With ``record_route`` the packet carries the IP record-route option:
    every visited node appends its name, and the echo reply continues the
    same list — how the paper obtained the Table 1 route with ping.
    """
    return Packet(src=src, dst=dst, kind=KIND_ICMP_ECHO,
                  size_bytes=size_bytes,
                  payload=EchoContext(ident=ident, seq=seq),
                  created_at=created_at,
                  record=[] if record_route else None)


def make_echo_reply(echo: Packet, created_at: float) -> Packet:
    """Build the reply to ``echo`` (src/dst swapped, payload preserved).

    A record-route list is carried over so the reply keeps appending, as
    the real IP option does across the round trip.
    """
    return Packet(src=echo.dst, dst=echo.src, kind=KIND_ICMP_ECHO_REPLY,
                  size_bytes=echo.size_bytes, payload=echo.payload,
                  created_at=created_at, record=echo.record)


def make_error(kind: str, reporter: str, offending: Packet,
               created_at: float) -> Packet:
    """Build a time-exceeded or port-unreachable error about ``offending``."""
    if kind not in (KIND_ICMP_TIME_EXCEEDED, KIND_ICMP_PORT_UNREACHABLE):
        raise ValueError(f"not an ICMP error kind: {kind!r}")
    context = ErrorContext(
        reporter=reporter,
        original_uid=offending.uid,
        original_src=offending.src,
        original_dst=offending.dst,
        original_src_port=offending.src_port,
        original_dst_port=offending.dst_port,
    )
    return Packet(src=reporter, dst=offending.src, kind=kind,
                  size_bytes=ERROR_SIZE_BYTES, payload=context,
                  created_at=created_at)
