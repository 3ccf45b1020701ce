"""Unit tests for packet construction."""

import pytest

from repro.net.packet import (
    DEFAULT_TTL,
    KIND_ICMP_ECHO,
    KIND_ICMP_TIME_EXCEEDED,
    KIND_UDP,
    Packet,
    UDP_WIRE_OVERHEAD_BYTES,
    make_udp,
)


class TestMakeUdp:
    def test_wire_size_includes_overhead(self):
        packet = make_udp("a", "b", 1000, 2000, payload_bytes=32)
        assert packet.size_bytes == 32 + UDP_WIRE_OVERHEAD_BYTES

    def test_paper_probe_is_72_bytes(self):
        # The paper computes with P = 72 * 8 bits for a 32-byte payload.
        packet = make_udp("a", "b", 1, 2, payload_bytes=32)
        assert packet.size_bytes == 72
        assert packet.size_bits == 576

    def test_ports_and_addresses(self):
        packet = make_udp("src", "dst", 10, 20)
        assert (packet.src, packet.dst) == ("src", "dst")
        assert (packet.src_port, packet.dst_port) == (10, 20)
        assert packet.kind == KIND_UDP

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            make_udp("a", "b", 1, 2, payload_bytes=-1)

    def test_default_ttl(self):
        assert make_udp("a", "b", 1, 2).ttl == DEFAULT_TTL


class TestPacket:
    def test_uids_unique(self):
        first = Packet(src="a", dst="b")
        second = Packet(src="a", dst="b")
        assert first.uid != second.uid

    def test_next_packet_uid_monotonic(self):
        # Each new packet draws the next uid from the per-simulation counter.
        uids = [Packet(src="a", dst="b").uid for _ in range(3)]
        assert uids == sorted(uids) and len(set(uids)) == 3

    def test_icmp_classification(self):
        echo = Packet(src="a", dst="b", kind=KIND_ICMP_ECHO)
        assert echo.is_icmp and not echo.is_icmp_error
        exceeded = Packet(src="a", dst="b", kind=KIND_ICMP_TIME_EXCEEDED)
        assert exceeded.is_icmp and exceeded.is_icmp_error
        udp = Packet(src="a", dst="b", kind=KIND_UDP)
        assert not udp.is_icmp

    def test_repr_mentions_ports_for_udp(self):
        packet = make_udp("a", "b", 7, 9)
        assert "7->9" in repr(packet)
