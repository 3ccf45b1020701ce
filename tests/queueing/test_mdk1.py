"""Tests for the M/D/1(/K) reference formulas."""

import pytest

from repro.errors import ConfigurationError
from repro.queueing.mdk1 import md1_mean_wait, mdk1_blocking_probability


class TestMD1:
    def test_known_value(self):
        # rho = 0.5, y = 1: Wq = 0.5 / (2 * 0.5) = 0.5.
        assert md1_mean_wait(0.5, 1.0) == pytest.approx(0.5)

    def test_grows_toward_saturation(self):
        waits = [md1_mean_wait(rho, 1.0) for rho in (0.3, 0.6, 0.9)]
        assert waits[0] < waits[1] < waits[2]

    def test_zero_load(self):
        assert md1_mean_wait(0.0, 1.0) == 0.0

    def test_unstable_rejected(self):
        with pytest.raises(ConfigurationError):
            md1_mean_wait(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            md1_mean_wait(2.0, 1.0)


class TestMDK1:
    def test_blocking_increases_with_load(self):
        low = mdk1_blocking_probability(0.5, 1.0, buffer_size=5)
        high = mdk1_blocking_probability(0.95, 1.0, buffer_size=5)
        assert 0.0 <= low < high < 1.0

    def test_blocking_decreases_with_buffer(self):
        values = [mdk1_blocking_probability(0.8, 1.0, k)
                  for k in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_large_buffer_negligible_blocking_under_load_below_one(self):
        assert mdk1_blocking_probability(0.5, 1.0, 40) < 1e-6

    def test_k_equals_one_is_erlang_like(self):
        # With K=1 (no waiting room), blocking is substantial at rho=1.
        assert mdk1_blocking_probability(1.0, 1.0, 1) > 0.2

    def test_overload_blocks_excess(self):
        # rho = 2: at least half of arrivals must be dropped.
        blocking = mdk1_blocking_probability(2.0, 1.0, 10)
        assert blocking == pytest.approx(0.5, abs=0.05)

    def test_zero_arrivals(self):
        assert mdk1_blocking_probability(0.0, 1.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mdk1_blocking_probability(0.5, 1.0, 0)


class TestAgainstSimulation:
    """The simulator's queue must match M/D/1 theory (substrate oracle)."""

    def test_md1_wait_matches_simulated_link(self):
        from repro.net.routing import Network
        from repro.sim.kernel import Simulator
        from repro.traffic.base import TrafficSink
        from repro.traffic.poisson import PoissonSource
        from repro.traffic.sizes import FixedSize

        sim = Simulator(seed=11)
        network = Network(sim)
        network.add_host("tx")
        network.add_host("rx")
        # 1000 B wire packets at 80 kb/s: service time y = 0.1 s.
        network.link("tx", "rx", rate_bps=80_000.0, prop_delay=0.0,
                     queue_capacity=100_000)
        network.compute_routes()
        arrivals = []
        departures = []
        network.host("rx").bind_udp(9000, lambda p: departures.append(
            (p.payload, sim.now)))
        source = PoissonSource(network.host("tx"), "rx", rate_pps=6.0,
                               sizes=FixedSize(960))  # 1000 B on the wire
        original_emit = source._emit

        def emit_with_timestamp():
            arrivals.append(sim.now)
            source.host.send_udp("rx", 9000, 9000, payload=sim.now,
                                 payload_bytes=960)
            source.packets_sent += 1

        source._emit = emit_with_timestamp
        source.start()
        sim.run(until=3000.0)

        # Waiting time = departure - arrival - service.
        waits = [depart - sent - 0.1 for sent, depart in departures]
        mean_wait = sum(waits) / len(waits)
        theory = md1_mean_wait(6.0, 0.1)  # rho = 0.6
        assert mean_wait == pytest.approx(theory, rel=0.15)

    def test_mdk1_blocking_matches_simulated_link(self):
        """The embedded-chain blocking formula is an oracle for the
        simulated drop-tail link.  The interface holds one packet in the
        transmitter plus ``capacity`` waiting, so a system size of K maps
        to queue capacity K - 1."""
        from repro.net.routing import Network
        from repro.sim.kernel import Simulator
        from repro.traffic.base import TrafficSink
        from repro.traffic.poisson import PoissonSource
        from repro.traffic.sizes import FixedSize

        k_system = 5
        sim = Simulator(seed=12)
        network = Network(sim)
        network.add_host("tx")
        network.add_host("rx")
        # 1000 B wire at 80 kb/s: y = 0.1 s; rho = 0.85.
        network.link("tx", "rx", rate_bps=80_000.0, prop_delay=0.0,
                     queue_capacity=k_system - 1)
        network.compute_routes()
        TrafficSink(network.host("rx"))
        source = PoissonSource(network.host("tx"), "rx", rate_pps=8.5,
                               sizes=FixedSize(960))
        source.start()
        sim.run(until=4000.0)
        source.stop()
        sim.run()
        queue = network.interface("tx", "rx").queue
        simulated = queue.drops / queue.arrivals
        theory = mdk1_blocking_probability(8.5, 0.1, k_system)
        assert simulated == pytest.approx(theory, rel=0.15)
