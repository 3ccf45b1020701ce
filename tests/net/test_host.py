"""Unit tests for hosts: UDP demux, port errors, clocks."""

import pytest

from repro.errors import PortInUseError
from repro.net.clocks import QuantizedClock
from repro.net.packet import KIND_ICMP_PORT_UNREACHABLE
from repro.net.routing import Network
from repro.units import mbps


def pair(sim):
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    network.link("a", "b", rate_bps=mbps(10), prop_delay=0.001)
    network.compute_routes()
    return network, network.host("a"), network.host("b")


class TestUdpDemux:
    def test_delivery_to_bound_port(self, sim):
        _, a, b = pair(sim)
        got = []
        b.bind_udp(53, got.append)
        a.send_udp("b", 1000, 53, payload="hello", payload_bytes=5)
        sim.run()
        assert len(got) == 1
        assert got[0].payload == "hello"

    def test_two_ports_demultiplexed(self, sim):
        _, a, b = pair(sim)
        first, second = [], []
        b.bind_udp(1, first.append)
        b.bind_udp(2, second.append)
        a.send_udp("b", 9, 1, payload_bytes=5)
        a.send_udp("b", 9, 2, payload_bytes=5)
        a.send_udp("b", 9, 2, payload_bytes=5)
        sim.run()
        assert (len(first), len(second)) == (1, 2)

    def test_double_bind_rejected(self, sim):
        _, _, b = pair(sim)
        b.bind_udp(53, lambda p: None)
        with pytest.raises(PortInUseError):
            b.bind_udp(53, lambda p: None)

    def test_unbind_then_rebind(self, sim):
        _, _, b = pair(sim)
        b.bind_udp(53, lambda p: None)
        b.unbind_udp(53)
        b.bind_udp(53, lambda p: None)  # no error

    def test_unbind_unknown_port_ignored(self, sim):
        _, _, b = pair(sim)
        b.unbind_udp(9999)  # no error

    def test_counters(self, sim):
        _, a, b = pair(sim)
        b.bind_udp(53, lambda p: None)
        a.send_udp("b", 9, 53, payload_bytes=5)
        sim.run()
        assert a.udp_sent == 1
        assert b.udp_received == 1


class TestPortUnreachable:
    def test_unbound_port_generates_icmp(self, sim):
        _, a, b = pair(sim)
        errors = []
        a.add_icmp_listener(errors.append)
        a.send_udp("b", 1000, 9999, payload_bytes=5)
        sim.run()
        assert len(errors) == 1
        assert errors[0].kind == KIND_ICMP_PORT_UNREACHABLE
        assert errors[0].payload.original_dst_port == 9999

    def test_bound_port_no_icmp(self, sim):
        _, a, b = pair(sim)
        errors = []
        a.add_icmp_listener(errors.append)
        b.bind_udp(53, lambda p: None)
        a.send_udp("b", 1000, 53, payload_bytes=5)
        sim.run()
        assert errors == []


class TestHostClock:
    def test_default_clock_is_perfect(self, sim):
        _, a, _ = pair(sim)
        sim.run(until=1.2345)
        assert a.clock.now() == pytest.approx(1.2345)

    def test_quantized_clock_floors(self, sim):
        _, a, _ = pair(sim)
        a.clock = QuantizedClock(sim, resolution=0.01)
        sim.run(until=0.0567)
        assert a.clock.now() == pytest.approx(0.05)
