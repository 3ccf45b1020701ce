"""Tests for packet taps."""

import csv

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.net.packet import KIND_UDP
from repro.net.routing import Network
from repro.net.tap import PacketTap
from repro.obs.lifecycle import PacketLifecycleTracer
from repro.tools.ping import ping
from repro.units import mbps, ms


def pair(sim):
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    network.link("a", "b", rate_bps=mbps(10), prop_delay=ms(1))
    network.compute_routes()
    return network


class TestPacketTap:
    def test_records_crossing_packets(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        network.host("b").bind_udp(9, lambda p: None)
        for _ in range(3):
            network.host("a").send_udp("b", 9, 9, payload_bytes=100)
        sim.run()
        assert len(tap) == 3
        assert all(r.kind == KIND_UDP for r in tap.records)
        assert all(r.size_bytes == 140 for r in tap.records)

    def test_delivery_still_happens(self, sim):
        network = pair(sim)
        PacketTap(network.interface("a", "b"))
        received = []
        network.host("b").bind_udp(9, received.append)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run()
        assert len(received) == 1

    def test_kind_filter(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"), kinds={KIND_UDP})
        network.host("b").bind_udp(9, lambda p: None)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        ping(network, "a", "b", count=1)
        assert len(tap) == 1  # the echo request was filtered out

    def test_direction_specific(self, sim):
        network = pair(sim)
        forward = PacketTap(network.interface("a", "b"))
        reverse = PacketTap(network.interface("b", "a"))
        network.host("b").bind_udp(9, lambda p: None)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run()
        assert len(forward) == 1
        assert len(reverse) == 0

    def test_interarrival_and_throughput(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        network.host("b").bind_udp(9, lambda p: None)
        for i in range(3):
            sim.call_at(i * 0.5, lambda: network.host("a").send_udp(
                "b", 9, 9, payload_bytes=85))
        sim.run()
        gaps = tap.interarrival_times()
        assert gaps == pytest.approx([0.5, 0.5])
        # 125 B per 0.5 s = 2000 b/s over the 1 s capture span.
        assert tap.throughput_bps() == pytest.approx(3 * 125 * 8 / 1.0,
                                                     rel=0.01)

    def test_interarrival_needs_two(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        with pytest.raises(AnalysisError):
            tap.interarrival_times()

    def test_close_unhooks(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        network.host("b").bind_udp(9, lambda p: None)
        tap.close()
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run()
        assert len(tap) == 0

    def test_installed_mid_flight_sees_later_delivery(self, sim):
        # Hooks are read when the delivery event fires, so a tap added
        # while the packet propagates still captures it.
        network = pair(sim)
        network.host("b").bind_udp(9, lambda p: None)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run(until=0.0005)  # transmitted, 1 ms propagation to go
        assert network.interface("a", "b")._inflight
        tap = PacketTap(network.interface("a", "b"))
        sim.run()
        assert len(tap) == 1

    def test_one_tap_per_interface(self, sim):
        network = pair(sim)
        PacketTap(network.interface("a", "b"))
        with pytest.raises(ConfigurationError, match="a->b"):
            PacketTap(network.interface("a", "b"))

    def test_refuses_interface_held_by_tracer(self, sim):
        network = pair(sim)
        tracer = PacketLifecycleTracer(network)
        with pytest.raises(ConfigurationError):
            PacketTap(network.interface("a", "b"))
        assert network.interface("a", "b").lifecycle is tracer

    def test_tracer_refuses_tapped_network(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        with pytest.raises(ConfigurationError, match="a->b"):
            PacketLifecycleTracer(network)
        # Refused before anything was installed.
        assert network.interface("a", "b").lifecycle is tap
        assert network.interface("b", "a").lifecycle is None
        assert network.host("a").lifecycle is None

    def test_close_leaves_a_later_tracer_in_place(self, sim):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        tap.close()
        tracer = PacketLifecycleTracer(network)
        tap.close()
        assert network.interface("a", "b").lifecycle is tracer
        network.host("b").bind_udp(9, lambda p: None)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run()
        assert len(tap) == 0
        assert [r.event for r in tracer.records].count("delivered") == 1

    def test_save_csv(self, sim, tmp_path):
        network = pair(sim)
        tap = PacketTap(network.interface("a", "b"))
        network.host("b").bind_udp(9, lambda p: None)
        network.host("a").send_udp("b", 9, 9, payload_bytes=10)
        sim.run()
        path = tmp_path / "capture.csv"
        tap.save_csv(path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "time"
        assert len(rows) == 2

    def test_tap_sees_probe_compression_spacing(self):
        """Taps verify the physics behind the phase plots: compressed
        probes leave the bottleneck one service time apart."""
        from repro.netdyn.session import run_probe_experiment
        from tests.topology.single_bottleneck import build_single_bottleneck
        from tests.traffic.periodic_source import PeriodicSource
        import numpy as np

        scenario = build_single_bottleneck(seed=9)
        tap = PacketTap(scenario.bottleneck_fwd, kinds={KIND_UDP})
        source = PeriodicSource(scenario.network.host("cross-l"), "cross-r",
                                interval=0.5, payload_bytes=512, burst=3)
        source.start()
        run_probe_experiment(scenario.network, scenario.source,
                             scenario.echo, delta=0.02, count=300,
                             start_at=1.0)
        probe_times = np.array([r.time for r in tap.records
                                if r.size_bytes == 72])
        gaps = np.diff(probe_times)
        service = 72 * 8 / 128e3
        compressed = np.abs(gaps - service) < 1e-4
        assert compressed.sum() > 5
