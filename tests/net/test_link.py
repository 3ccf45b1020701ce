"""Unit tests for interfaces/links: serialization, queueing, faults."""

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import PeriodicStallFault, RandomDropFault
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.routing import Network


def make_link(sim, rate_bps=8000.0, prop_delay=0.0, capacity=16):
    """A two-node network with one link; returns (net, a, b, iface_ab)."""
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    iface_ab, _ = network.link("a", "b", rate_bps=rate_bps,
                               prop_delay=prop_delay,
                               queue_capacity=capacity)
    network.compute_routes()
    return network, network.host("a"), network.host("b"), iface_ab


def packet(size=100):
    return Packet(src="a", dst="b", size_bytes=size)


class TestSerialization:
    def test_transmission_delay(self, sim):
        # 100 B = 800 bits at 8000 b/s -> 0.1 s.
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=100 - 40)
        sim.run()
        assert arrivals == [pytest.approx(0.1)]

    def test_propagation_adds_latency(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0, prop_delay=0.25)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert arrivals == [pytest.approx(0.1 + 0.25)]

    def test_back_to_back_packets_serialize(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_transmitted_bits_counter(self, sim):
        _, a, b, iface = make_link(sim)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert iface.transmitted == 1
        assert iface.transmitted_bits == 800

    def test_utilization_estimate(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run(until=0.2)
        assert iface.utilization_estimate() == pytest.approx(0.5)
        assert iface.busy_time == pytest.approx(0.1)

    def test_utilization_counts_in_progress_transmission(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run(until=0.05)  # mid-serialization of the 0.1 s packet
        assert iface.busy_time == pytest.approx(0.05)
        assert iface.utilization_estimate() == pytest.approx(1.0)


class TestQueueing:
    def test_overflow_drops_excess(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=800.0, capacity=2)
        received = []
        b.bind_udp(9, received.append)
        # First starts transmitting (1 s each); next two queue; rest drop.
        for _ in range(6):
            a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert len(received) == 3
        assert iface.queue.drops == 3

    def test_queue_drains_in_order(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0, capacity=10)
        received = []
        b.bind_udp(9, lambda p: received.append(p.payload))
        for tag in ("x", "y", "z"):
            a.send_udp("b", 9, 9, payload=tag, payload_bytes=60)
        sim.run()
        assert received == ["x", "y", "z"]


class TestFaults:
    def test_egress_random_drop(self, sim):
        _, a, b, iface = make_link(sim)
        iface.add_egress_fault(RandomDropFault(1.0, sim.streams.get("f")))
        received = []
        b.bind_udp(9, received.append)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert received == []
        assert iface.fault_drops == 1

    def test_ingress_random_drop(self, sim):
        _, a, b, iface = make_link(sim)
        iface.add_ingress_fault(RandomDropFault(1.0, sim.streams.get("f")))
        received = []
        b.bind_udp(9, received.append)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert received == []

    def test_stall_delays_transmission(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        iface.add_egress_fault(PeriodicStallFault(period=100.0, stall=2.0))
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)  # sent at t=0, in stall
        sim.run()
        assert arrivals == [pytest.approx(2.0 + 0.1)]

    def test_zero_probability_fault_is_noop(self, sim):
        _, a, b, iface = make_link(sim)
        iface.add_egress_fault(RandomDropFault(0.0, sim.streams.get("f")))
        received = []
        b.bind_udp(9, received.append)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert len(received) == 1


class TestValidation:
    def test_bad_rate_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        with pytest.raises(ConfigurationError):
            Interface(sim, node, rate_bps=0.0, prop_delay=0.0, queue=queue)

    def test_negative_delay_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        with pytest.raises(ConfigurationError):
            Interface(sim, node, rate_bps=1.0, prop_delay=-1.0, queue=queue)

    def test_send_without_peer_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        iface = Interface(sim, node, rate_bps=1.0, prop_delay=0.0,
                          queue=queue)
        with pytest.raises(ConfigurationError):
            iface.send(packet())
