"""Unit tests for node forwarding, TTL handling, and ICMP generation."""

import pytest

from repro.errors import RoutingError
from repro.net.icmp import ErrorContext
from repro.net.packet import (
    KIND_ICMP_ECHO_REPLY,
    KIND_ICMP_TIME_EXCEEDED,
    Packet,
)
from repro.net import icmp
from repro.net.routing import Network
from repro.units import mbps


def chain(sim, count=4):
    """hosts h0 - h1 - ... - h(count-1) on fast links."""
    network = Network(sim)
    names = [f"h{i}" for i in range(count)]
    for name in names:
        network.add_host(name)
    for a, b in zip(names, names[1:]):
        network.link(a, b, rate_bps=mbps(10), prop_delay=0.001)
    network.compute_routes()
    return network, names


class TestForwarding:
    def test_multihop_delivery(self, sim):
        network, names = chain(sim)
        received = []
        network.host(names[-1]).bind_udp(9, received.append)
        network.host(names[0]).send_udp(names[-1], 9, 9, payload_bytes=10)
        sim.run()
        assert len(received) == 1
        # hops counts forwarding operations at intermediate nodes.
        assert received[0].hops == len(names) - 2

    def test_forward_counter(self, sim):
        network, names = chain(sim)
        network.host(names[-1]).bind_udp(9, lambda p: None)
        network.host(names[0]).send_udp(names[-1], 9, 9, payload_bytes=10)
        sim.run()
        assert network.node(names[1]).forwarded == 1
        assert network.node(names[2]).forwarded == 1

    def test_no_route_drops(self, sim):
        network = Network(sim)
        network.add_host("lonely")
        network.add_host("elsewhere")
        network.host("lonely").send_udp("elsewhere", 9, 9)
        sim.run()
        assert network.node("lonely").no_route_drops == 1


class TestTtl:
    def test_ttl_expiry_generates_time_exceeded(self, sim):
        network, names = chain(sim)
        errors = []
        src = network.host(names[0])
        src.add_icmp_listener(errors.append)
        src.send_udp(names[-1], 9, 9, payload_bytes=10, ttl=2)
        sim.run()
        assert len(errors) == 1
        error = errors[0]
        assert error.kind == KIND_ICMP_TIME_EXCEEDED
        assert error.src == names[2]  # the node where TTL hit zero
        context = error.payload
        assert isinstance(context, ErrorContext)
        assert context.original_dst == names[-1]

    def test_sufficient_ttl_no_error(self, sim):
        network, names = chain(sim)
        errors = []
        src = network.host(names[0])
        src.add_icmp_listener(errors.append)
        network.host(names[-1]).bind_udp(9, lambda p: None)
        src.send_udp(names[-1], 9, 9, payload_bytes=10, ttl=10)
        sim.run()
        assert errors == []

    def test_no_error_about_error(self, sim):
        """ICMP errors about ICMP errors are suppressed (RFC 1122)."""
        network, names = chain(sim)
        exceeded = icmp.make_error(
            KIND_ICMP_TIME_EXCEEDED, reporter=names[0],
            offending=Packet(src=names[-1], dst=names[0]), created_at=0.0)
        exceeded.ttl = 1  # will expire at the first hop
        listener_calls = []
        network.host(names[-1]).add_icmp_listener(listener_calls.append)
        network.host(names[0]).originate(exceeded)
        sim.run()
        assert listener_calls == []  # dropped silently, no error generated


class TestEchoReply:
    def test_node_answers_echo(self, sim):
        network, names = chain(sim)
        replies = []
        src = network.host(names[0])
        src.add_icmp_listener(replies.append)
        echo = icmp.make_echo(names[0], names[-1], ident=1, seq=0,
                              created_at=sim.now)
        src.originate(echo)
        sim.run()
        assert len(replies) == 1
        assert replies[0].kind == KIND_ICMP_ECHO_REPLY
        assert replies[0].payload.seq == 0

    def test_self_addressed_packet_delivered_locally(self, sim):
        network, names = chain(sim)
        received = []
        host = network.host(names[0])
        host.bind_udp(9, received.append)
        host.send_udp(names[0], 9, 9, payload_bytes=10)
        sim.run()
        assert len(received) == 1


class TestRoutingTable:
    def test_set_next_hop_requires_adjacency(self, sim):
        network, names = chain(sim)
        with pytest.raises(RoutingError):
            network.node(names[0]).set_next_hop(names[-1], names[2])

    def test_interface_to_unknown_peer(self, sim):
        network, names = chain(sim)
        with pytest.raises(RoutingError):
            network.node(names[0]).interface_to("nowhere")
