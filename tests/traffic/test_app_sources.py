"""Unit tests for the application-flavored sources (FTP, Telnet, mix)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.net.routing import Network
from repro.traffic.base import TrafficSink
from repro.traffic.ftp import FtpSource
from repro.traffic.mix import attach_internet_mix
from repro.traffic.sizes import (
    EmpiricalSize,
    FixedSize,
    FTP_PAYLOAD_BYTES,
    telnet_sizes,
)
from repro.traffic.telnet import TelnetSource
from repro.units import mbps


@pytest.fixture
def net(sim):
    network = Network(sim)
    network.add_host("tx")
    network.add_host("rx")
    network.link("tx", "rx", rate_bps=mbps(100), prop_delay=0.0001,
                 queue_capacity=100_000)
    network.compute_routes()
    return network


class TestFtp:
    def test_windows_arrive_as_bursts(self, sim, net):
        arrivals = []
        net.host("rx").bind_udp(9000, lambda p: arrivals.append(sim.now))
        source = FtpSource(net.host("tx"), "rx", session_rate=0.01,
                           mean_file_packets=12.0, window=4,
                           window_interval=0.5)
        # Force exactly one session right away for a deterministic check.
        source._emit()
        sim.run(until=10.0)
        gaps = np.diff(arrivals)
        # Within-window gaps are microseconds; between-window gaps 0.5 s.
        large = gaps[gaps > 0.1]
        assert np.allclose(large, 0.5, atol=1e-3)
        small = gaps[gaps <= 0.1]
        assert np.all(small < 1e-3)

    def test_file_size_distribution(self, sim, net):
        sink = TrafficSink(net.host("rx"))
        source = FtpSource(net.host("tx"), "rx", session_rate=5.0,
                           mean_file_packets=20.0, window=4,
                           window_interval=0.05)
        source.start()
        sim.run(until=60.0)
        assert source.sessions_started > 100
        per_session = sink.packets / source.sessions_finished
        assert 16 <= per_session <= 24

    def test_all_packets_are_bulk_size(self, sim, net):
        sizes = set()
        net.host("rx").bind_udp(9000, lambda p: sizes.add(p.size_bytes))
        source = FtpSource(net.host("tx"), "rx", session_rate=2.0)
        source.start()
        sim.run(until=10.0)
        assert sizes == {FTP_PAYLOAD_BYTES + UDP_WIRE_OVERHEAD_BYTES}

    def test_validation(self, sim, net):
        host = net.host("tx")
        with pytest.raises(ConfigurationError):
            FtpSource(host, "rx", session_rate=0.0)
        with pytest.raises(ConfigurationError):
            FtpSource(host, "rx", session_rate=1.0, window=0)
        with pytest.raises(ConfigurationError):
            FtpSource(host, "rx", session_rate=1.0, mean_file_packets=0.5)
        with pytest.raises(ConfigurationError):
            FtpSource(host, "rx", session_rate=1.0, window_interval=0.0)


class TestTelnet:
    def test_small_packets_only(self, sim, net):
        sizes = []
        net.host("rx").bind_udp(9000, lambda p: sizes.append(p.size_bytes))
        source = TelnetSource(net.host("tx"), "rx", rate_pps=200.0)
        source.start()
        sim.run(until=10.0)
        payloads = np.array(sizes) - UDP_WIRE_OVERHEAD_BYTES
        assert payloads.max() <= 64
        assert payloads.min() >= 1

    def test_keystrokes_dominate(self, sim, net):
        sizes = []
        net.host("rx").bind_udp(9000, lambda p: sizes.append(p.size_bytes))
        source = TelnetSource(net.host("tx"), "rx", rate_pps=500.0)
        source.start()
        sim.run(until=20.0)
        payloads = np.array(sizes) - UDP_WIRE_OVERHEAD_BYTES
        assert np.mean(payloads <= 2) > 0.3  # 1-2 byte keystrokes frequent

    def test_validation(self, sim, net):
        with pytest.raises(ConfigurationError):
            TelnetSource(net.host("tx"), "rx", rate_pps=0.0)


class TestSizes:
    def test_fixed(self, rng):
        dist = FixedSize(100)
        assert dist.sample(rng) == 100
        assert dist.mean() == 100.0

    def test_fixed_validation(self):
        with pytest.raises(ConfigurationError):
            FixedSize(0)

    def test_empirical_mean(self, rng):
        dist = EmpiricalSize([10, 20], [0.5, 0.5])
        assert dist.mean() == pytest.approx(15.0)
        draws = [dist.sample(rng) for _ in range(2000)]
        assert set(draws) == {10, 20}
        assert abs(np.mean(draws) - 15.0) < 1.0

    def test_empirical_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalSize([], [])
        with pytest.raises(ConfigurationError):
            EmpiricalSize([1, 2], [1.0])
        with pytest.raises(ConfigurationError):
            EmpiricalSize([1], [0.0])

    @pytest.mark.parametrize("weights", [
        [0.6, -0.2, 0.6],
        [0.5, float("nan"), 0.5],
        [0.5, float("inf"), 0.5],
    ])
    def test_empirical_rejects_negative_or_nonfinite_weights(self, weights):
        # A negative weight makes the cumulative distribution non-monotone
        # (size 2 could never be drawn); NaN/inf make it meaningless.
        with pytest.raises(ConfigurationError):
            EmpiricalSize([1, 2, 3], weights)

    def test_empirical_matches_generator_choice(self):
        # sample() must return what Generator.choice returns from the same
        # single uniform, leaving the generator in the same state.
        dist = telnet_sizes()
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        got = [dist.sample(rng) for _ in range(2000)]
        want = [int(reference.choice(dist.sizes, p=dist.probabilities))
                for _ in range(2000)]
        assert got == want
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_fixed_consumes_no_draw(self, rng):
        state = rng.bit_generator.state
        assert FixedSize(FTP_PAYLOAD_BYTES).sample(rng) == FTP_PAYLOAD_BYTES
        assert rng.bit_generator.state == state

    def test_presets(self, rng):
        assert FixedSize(FTP_PAYLOAD_BYTES).mean() == FTP_PAYLOAD_BYTES
        assert 1 <= telnet_sizes().mean() <= 64


class TestMix:
    def test_offered_load_hits_target(self, sim, net):
        mix = attach_internet_mix(net.host("tx"), net.host("rx"),
                                  link_rate_bps=mbps(1), utilization=0.5,
                                  bulk_fraction=0.8)
        mix.start()
        duration = 120.0
        sim.run(until=duration)
        wire_bits = sum(sink.bytes * 8 for sink in mix.sinks)
        utilization = wire_bits / (mbps(1) * duration)
        assert 0.4 <= utilization <= 0.6

    def test_bulk_fraction_split(self, sim, net):
        mix = attach_internet_mix(net.host("tx"), net.host("rx"),
                                  link_rate_bps=mbps(1), utilization=0.5,
                                  bulk_fraction=0.8)
        mix.start()
        sim.run(until=120.0)
        ftp_sink, telnet_sink = mix.sinks
        ftp_bits = ftp_sink.bytes * 8
        telnet_bits = telnet_sink.bytes * 8
        share = ftp_bits / (ftp_bits + telnet_bits)
        assert 0.7 <= share <= 0.9

    def test_pure_bulk_mix(self, sim, net):
        mix = attach_internet_mix(net.host("tx"), net.host("rx"),
                                  link_rate_bps=mbps(1), utilization=0.3,
                                  bulk_fraction=1.0)
        assert len(mix.sources) == 1
        assert len(mix.sinks) == 1

    def test_validation(self, sim, net):
        with pytest.raises(ConfigurationError):
            attach_internet_mix(net.host("tx"), net.host("rx"),
                                link_rate_bps=mbps(1), utilization=1.5)
        with pytest.raises(ConfigurationError):
            attach_internet_mix(net.host("tx"), net.host("rx"),
                                link_rate_bps=mbps(1), utilization=0.5,
                                bulk_fraction=1.5)

    def test_stop(self, sim, net):
        mix = attach_internet_mix(net.host("tx"), net.host("rx"),
                                  link_rate_bps=mbps(1), utilization=0.5)
        mix.start()
        sim.run(until=10.0)
        sent_at_stop = mix.packets_sent()
        mix.stop()
        sim.run(until=30.0)
        assert mix.packets_sent() == sent_at_stop
