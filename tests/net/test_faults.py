"""Unit tests for fault models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.faults import (
    FaultModel,
    PeriodicStallFault,
    RandomDropFault,
    RouteFlapFault,
)
from repro.net.packet import Packet
from repro.net.routing import Network
from repro.units import mbps


class TestBaseFault:
    def test_default_never_drops(self, sim):
        fault = FaultModel()
        assert not fault.drops(Packet(src="a", dst="b"), sim)
        assert fault.stalled_until(5.0) == 5.0


class TestRandomDrop:
    def test_probability_validation(self):
        import numpy as np
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            RandomDropFault(1.5, rng)
        with pytest.raises(ConfigurationError):
            RandomDropFault(-0.1, rng)

    def test_empirical_rate(self, sim):
        fault = RandomDropFault(0.3, sim.streams.get("f"))
        packet = Packet(src="a", dst="b")
        drops = sum(fault.drops(packet, sim) for _ in range(20000))
        assert 0.27 <= drops / 20000 <= 0.33
        assert fault.dropped == drops

    def test_extremes(self, sim):
        never = RandomDropFault(0.0, sim.streams.get("f0"))
        always = RandomDropFault(1.0, sim.streams.get("f1"))
        packet = Packet(src="a", dst="b")
        assert not any(never.drops(packet, sim) for _ in range(100))
        assert all(always.drops(packet, sim) for _ in range(100))


class TestPeriodicStall:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicStallFault(period=0.0, stall=0.0)
        with pytest.raises(ConfigurationError):
            PeriodicStallFault(period=1.0, stall=1.0)  # stall >= period
        with pytest.raises(ConfigurationError):
            PeriodicStallFault(period=1.0, stall=-0.1)

    def test_stall_window(self):
        fault = PeriodicStallFault(period=10.0, stall=2.0)
        assert fault.stalled_until(0.5) == pytest.approx(2.0)
        assert fault.stalled_until(1.999) == pytest.approx(2.0)
        assert fault.stalled_until(3.0) == 3.0  # outside the window
        assert fault.stalled_until(10.5) == pytest.approx(12.0)  # next cycle

    def test_phase_shifts_window(self):
        fault = PeriodicStallFault(period=10.0, stall=2.0, phase=5.0)
        assert fault.stalled_until(5.5) == pytest.approx(7.0)
        assert fault.stalled_until(0.5) == 0.5


class TestRouteFlap:
    def make_network(self, sim):
        network = Network(sim)
        network.add_host("src")
        network.add_host("dst")
        network.add_router("primary")
        network.add_router("backup")
        for via in ("primary", "backup"):
            network.link("src", via, rate_bps=mbps(10), prop_delay=0.001)
            network.link(via, "dst", rate_bps=mbps(10), prop_delay=0.001)
        network.compute_routes()
        return network

    def test_flapping_toggles_next_hop(self, sim):
        network = self.make_network(sim)
        node = network.node("src")
        node.set_next_hop("dst", "primary")
        flap = RouteFlapFault(sim, node, destination="dst",
                              primary_peer="primary", backup_peer="backup",
                              period=1.0)
        flap.install()
        sim.run(until=1.5)
        assert node.routing["dst"] == "backup"
        sim.run(until=2.5)
        assert node.routing["dst"] == "primary"
        assert flap.flaps == 2

    def test_period_validation(self, sim):
        network = self.make_network(sim)
        with pytest.raises(ConfigurationError):
            RouteFlapFault(sim, network.node("src"), "dst", "primary",
                           "backup", period=0.0)


class TestDropsMany:
    """Batched drop decisions must replay the scalar draw sequence."""

    def make_fault(self, probability=0.3, seed=11):
        return RandomDropFault(probability,
                               rng=np.random.default_rng(seed))

    def test_mask_matches_sequential_drops(self):
        batched = self.make_fault()
        scalar = self.make_fault()
        mask = batched.drops_many(200)
        expected = np.array([scalar.drops(None, None) for _ in range(200)])
        assert np.array_equal(mask, expected)

    def test_counter_advances_by_mask_sum(self):
        fault = self.make_fault()
        mask = fault.drops_many(500)
        assert fault.dropped == int(mask.sum())

    def test_generator_state_identical_after_batch(self):
        batched = self.make_fault()
        scalar = self.make_fault()
        batched.drops_many(64)
        for _ in range(64):
            scalar.drops(None, None)
        assert batched._rng.random() == scalar._rng.random()

    def test_interleaved_batches_and_scalars(self):
        mixed = self.make_fault()
        scalar = self.make_fault()
        decisions = list(mixed.drops_many(10))
        decisions.append(mixed.drops(None, None))
        decisions.extend(mixed.drops_many(5))
        expected = [scalar.drops(None, None) for _ in range(16)]
        assert decisions == expected
