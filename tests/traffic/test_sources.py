"""Unit tests for the traffic source machinery and the Poisson source."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.traffic.base import TrafficSink
from repro.traffic.poisson import PoissonSource
from repro.traffic.sizes import FixedSize
from repro.units import mbps

from tests.traffic.periodic_source import PeriodicSource


@pytest.fixture
def net(sim):
    network = Network(sim)
    network.add_host("tx")
    network.add_host("rx")
    network.link("tx", "rx", rate_bps=mbps(100), prop_delay=0.0001,
                 queue_capacity=10_000)
    network.compute_routes()
    return network


class TestCBR:
    """The :class:`TrafficSource` emission loop, driven at a fixed rate."""

    def test_exact_packet_count(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = PeriodicSource(net.host("tx"), "rx", interval=0.1,
                                payload_bytes=100)
        source.start()
        sim.run(until=1.05)
        assert sink.packets == 10

    def test_regular_spacing(self, sim, net):
        arrivals = []
        net.host("rx").bind_udp(9000, lambda p: arrivals.append(sim.now))
        source = PeriodicSource(net.host("tx"), "rx", interval=0.25,
                                payload_bytes=10)
        source.start()
        sim.run(until=1.1)
        assert np.allclose(np.diff(arrivals), 0.25)

    def test_stop_halts_emission(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = PeriodicSource(net.host("tx"), "rx", interval=0.1,
                                payload_bytes=10)
        source.start()
        sim.call_at(0.55, source.stop)
        sim.run(until=2.0)
        assert sink.packets == 5

    def test_double_start_rejected(self, sim, net):
        source = PeriodicSource(net.host("tx"), "rx", interval=0.1,
                                payload_bytes=10)
        source.start()
        with pytest.raises(ConfigurationError):
            source.start()


class TestPoisson:
    def test_mean_rate(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = PoissonSource(net.host("tx"), "rx", rate_pps=200.0,
                               sizes=FixedSize(100))
        source.start()
        sim.run(until=20.0)
        # 4000 expected; Poisson sd ~63.
        assert 3600 <= sink.packets <= 4400

    def test_exponential_interarrivals(self, sim, net):
        arrivals = []
        net.host("rx").bind_udp(9000, lambda p: arrivals.append(sim.now))
        source = PoissonSource(net.host("tx"), "rx", rate_pps=100.0)
        source.start()
        sim.run(until=30.0)
        gaps = np.diff(arrivals)
        # Exponential: mean ~= sd.
        assert abs(gaps.mean() - gaps.std()) / gaps.mean() < 0.15

    def test_validation(self, sim, net):
        with pytest.raises(ConfigurationError):
            PoissonSource(net.host("tx"), "rx", rate_pps=0.0)


class TestSink:
    def test_throughput(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = PeriodicSource(net.host("tx"), "rx", interval=0.1,
                                payload_bytes=85)  # 125 B wire
        source.start()
        sim.run(until=10.05)
        # 125 B / 0.1 s = 10 kb/s.
        assert sink.throughput_bps() == pytest.approx(10_000, rel=0.05)

    def test_close_releases_port(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        sink.close()
        TrafficSink(net.host("rx"))  # rebinding works
