"""Unit tests for the traffic source primitives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.sim import Simulator
from repro.traffic.base import TrafficSink, TrafficSource
from repro.traffic.batch import BatchSource, fixed_batches, geometric_batches
from repro.traffic.deterministic import CBRSource
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import (
    DiurnalProfile,
    ModulatedPoissonSource,
    PoissonSource,
)
from repro.traffic.sizes import FixedSize
from repro.units import mbps


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
    def test_exact_packet_count(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = CBRSource(net.host("tx"), "rx", interval=0.1,
                           payload_bytes=100)
        source.start()
        sim.run(until=1.05)
        assert sink.packets == 10

    def test_regular_spacing(self, sim, net):
        arrivals = []
        net.host("rx").bind_udp(9000, lambda p: arrivals.append(sim.now))
        source = CBRSource(net.host("tx"), "rx", interval=0.25,
                           payload_bytes=10)
        source.start()
        sim.run(until=1.1)
        assert np.allclose(np.diff(arrivals), 0.25)

    def test_validation(self, sim, net):
        with pytest.raises(ConfigurationError):
            CBRSource(net.host("tx"), "rx", interval=0.0, payload_bytes=1)
        with pytest.raises(ConfigurationError):
            CBRSource(net.host("tx"), "rx", interval=1.0, payload_bytes=0)

    def test_stop_halts_emission(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = CBRSource(net.host("tx"), "rx", interval=0.1,
                           payload_bytes=10)
        source.start()
        sim.call_at(0.55, source.stop)
        sim.run(until=2.0)
        assert sink.packets == 5

    def test_double_start_rejected(self, sim, net):
        source = CBRSource(net.host("tx"), "rx", interval=0.1,
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


class TestBatch:
    def test_fixed_batches_arrive_together(self, sim, net):
        arrivals = []
        net.host("rx").bind_udp(9000, lambda p: arrivals.append(sim.now))
        source = BatchSource(net.host("tx"), "rx", batch_rate=1.0,
                            batch_sizes=fixed_batches(5),
                            deterministic=True)
        source.start()
        sim.run(until=1.5)
        assert len(arrivals) == 5
        # All five serialized back-to-back on a fast link: < 1 ms apart.
        assert max(arrivals) - min(arrivals) < 1e-3

    def test_geometric_mean_batch_size(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = BatchSource(net.host("tx"), "rx", batch_rate=50.0,
                             batch_sizes=geometric_batches(4.0))
        source.start()
        sim.run(until=40.0)
        mean_batch = sink.packets / source.batches_sent
        assert 3.5 <= mean_batch <= 4.5

    def test_batch_sampler_validation(self):
        with pytest.raises(ConfigurationError):
            geometric_batches(0.5)
        with pytest.raises(ConfigurationError):
            fixed_batches(0)


class TestOnOff:
    def test_duty_cycle_controls_volume(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = OnOffSource(net.host("tx"), "rx", on_mean=1.0, off_mean=1.0,
                             interval=0.01)
        source.start()
        sim.run(until=60.0)
        # ~50% duty at 100 pps -> ~3000 packets; be generous.
        assert 1800 <= sink.packets <= 4200

    def test_validation(self, sim, net):
        with pytest.raises(ConfigurationError):
            OnOffSource(net.host("tx"), "rx", on_mean=0.0, off_mean=1.0,
                        interval=0.1)


class TestModulatedPoisson:
    def test_rate_follows_profile(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        profile = DiurnalProfile(base_pps=100.0, amplitude=1.0, period=20.0,
                                 phase=0.0)
        source = ModulatedPoissonSource(net.host("tx"), "rx", rate=profile,
                                        peak_rate_pps=200.0)
        source.start()
        counts = {}

        def snapshot(label):
            counts[label] = sink.packets

        sim.call_at(5.0, lambda: snapshot("peak_start"))
        sim.call_at(10.0, lambda: snapshot("peak_end"))
        sim.call_at(15.0, lambda: snapshot("trough_end"))
        sim.run(until=20.0)
        rising = counts["peak_end"] - counts["peak_start"]
        falling = counts["trough_end"] - counts["peak_end"]
        # sin is high in (0,10) and low in (10,20): clearly more packets
        # in the first half.
        assert rising > 2 * falling

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(base_pps=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalProfile(base_pps=1.0, amplitude=2.0)
        with pytest.raises(ConfigurationError):
            DiurnalProfile(base_pps=1.0, period=0.0)

    def test_profile_nonnegative(self):
        profile = DiurnalProfile(base_pps=10.0, amplitude=1.0, period=10.0)
        for t in np.linspace(0, 20, 101):
            assert profile(t) >= 0.0


class TestSink:
    def test_throughput(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = CBRSource(net.host("tx"), "rx", interval=0.1,
                           payload_bytes=85)  # 125 B wire
        source.start()
        sim.run(until=10.05)
        # 125 B / 0.1 s = 10 kb/s.
        assert sink.throughput_bps() == pytest.approx(10_000, rel=0.05)

    def test_close_releases_port(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        sink.close()
        TrafficSink(net.host("rx"))  # rebinding works
