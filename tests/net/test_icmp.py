"""Unit tests for ICMP message construction."""

import pytest

from repro.net import icmp
from repro.net.packet import (
    KIND_ICMP_ECHO,
    KIND_ICMP_ECHO_REPLY,
    KIND_ICMP_PORT_UNREACHABLE,
    KIND_ICMP_TIME_EXCEEDED,
    KIND_UDP,
    make_udp,
)


class TestEcho:
    def test_make_echo_fields(self):
        echo = icmp.make_echo("a", "b", ident=7, seq=3, created_at=1.5)
        assert echo.kind == KIND_ICMP_ECHO
        assert echo.payload == icmp.EchoContext(ident=7, seq=3)
        assert echo.size_bytes == icmp.ECHO_SIZE_BYTES
        assert echo.created_at == 1.5

    def test_reply_swaps_addresses_keeps_payload(self):
        echo = icmp.make_echo("a", "b", ident=7, seq=3, created_at=0.0)
        reply = icmp.make_echo_reply(echo, created_at=2.0)
        assert reply.kind == KIND_ICMP_ECHO_REPLY
        assert (reply.src, reply.dst) == ("b", "a")
        assert reply.payload == echo.payload
        assert reply.size_bytes == echo.size_bytes


class TestErrors:
    def test_error_context_captures_offender(self):
        offending = make_udp("src", "dst", 1111, 2222)
        error = icmp.make_error(KIND_ICMP_TIME_EXCEEDED, reporter="router",
                                offending=offending, created_at=3.0)
        context = error.payload
        assert isinstance(context, icmp.ErrorContext)
        assert context.reporter == "router"
        assert context.original_uid == offending.uid
        assert context.original_src == "src"
        assert context.original_dst == "dst"
        assert context.original_src_port == 1111
        assert context.original_dst_port == 2222

    def test_error_addressed_to_offenders_source(self):
        offending = make_udp("src", "dst", 1, 2)
        error = icmp.make_error(KIND_ICMP_PORT_UNREACHABLE, reporter="dst",
                                offending=offending, created_at=0.0)
        assert (error.src, error.dst) == ("dst", "src")
        assert error.size_bytes == icmp.ERROR_SIZE_BYTES

    def test_non_error_kind_rejected(self):
        offending = make_udp("src", "dst", 1, 2)
        with pytest.raises(ValueError):
            icmp.make_error(KIND_UDP, reporter="r", offending=offending,
                            created_at=0.0)
