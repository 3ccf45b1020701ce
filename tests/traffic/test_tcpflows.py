"""Tests for the responsive bulk traffic source."""

import pytest

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.sim import Simulator
from repro.traffic.tcpflows import ResponsiveBulkSource
from repro.units import kbps, mbps, ms


def two_hosts(sim, rate_bps=mbps(1)):
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    network.link("a", "b", rate_bps=rate_bps, prop_delay=ms(10),
                 queue_capacity=32)
    network.compute_routes()
    return network


class TestResponsiveBulkSource:
    def test_sessions_launch_and_complete(self, sim):
        network = two_hosts(sim)
        source = ResponsiveBulkSource(network.host("a"), network.host("b"),
                                      session_rate=1.0,
                                      mean_file_segments=10.0)
        source.start()
        sim.run(until=60.0)
        assert source.sessions_started > 20
        # Finished transfers are reaped at each launch; only a few remain.
        assert len(source._active) < source.sessions_started

    def test_offered_load_tracks_session_rate(self, sim):
        network = two_hosts(sim, rate_bps=mbps(10))
        source = ResponsiveBulkSource(network.host("a"), network.host("b"),
                                      session_rate=2.0,
                                      mean_file_segments=10.0)
        source.start()
        sim.run(until=120.0)
        # ~240 sessions expected; Poisson sd ~15.
        assert 180 <= source.sessions_started <= 300

    def test_concurrency_cap(self, sim):
        # A slow link cannot drain sessions as fast as they arrive.
        network = two_hosts(sim, rate_bps=kbps(64))
        source = ResponsiveBulkSource(network.host("a"), network.host("b"),
                                      session_rate=5.0,
                                      mean_file_segments=50.0,
                                      max_concurrent=4)
        source.start()
        sim.run(until=60.0)
        assert len(source._active) <= 4
        assert source.sessions_skipped > 0

    def test_stop_prevents_new_sessions(self, sim):
        network = two_hosts(sim)
        source = ResponsiveBulkSource(network.host("a"), network.host("b"),
                                      session_rate=2.0)
        source.start()
        sim.run(until=20.0)
        started = source.sessions_started
        source.stop()
        sim.run(until=60.0)
        assert source.sessions_started == started

    def test_validation(self, sim):
        network = two_hosts(sim)
        a, b = network.host("a"), network.host("b")
        with pytest.raises(ConfigurationError):
            ResponsiveBulkSource(a, b, session_rate=0.0)
        with pytest.raises(ConfigurationError):
            ResponsiveBulkSource(a, b, session_rate=1.0,
                                 mean_file_segments=0.5)
        with pytest.raises(ConfigurationError):
            ResponsiveBulkSource(a, b, session_rate=1.0, max_concurrent=0)

    def test_double_start_rejected(self, sim):
        network = two_hosts(sim)
        source = ResponsiveBulkSource(network.host("a"), network.host("b"),
                                      session_rate=1.0)
        source.start()
        with pytest.raises(ConfigurationError):
            source.start()
