"""Unit tests for host clock models."""

import pytest

from repro.errors import ConfigurationError
from repro.net.clocks import (
    DECSTATION_RESOLUTION,
    PerfectClock,
    QuantizedClock,
)


class TestPerfectClock:
    def test_tracks_sim_time(self, sim):
        clock = PerfectClock(sim)
        sim.run(until=1.234)
        assert clock.now() == pytest.approx(1.234)

    def test_zero_resolution(self, sim):
        assert PerfectClock(sim).resolution == 0.0


class TestQuantizedClock:
    def test_floors_to_tick(self, sim):
        clock = QuantizedClock(sim, resolution=0.004)
        sim.run(until=0.0105)
        assert clock.now() == pytest.approx(0.008)

    def test_decstation_resolution(self, sim):
        clock = QuantizedClock(sim, resolution=DECSTATION_RESOLUTION)
        sim.run(until=0.0100)
        # floor(0.0100 / 0.003906) = 2 ticks.
        assert clock.now() == pytest.approx(2 * DECSTATION_RESOLUTION)

    def test_readings_on_lattice(self, sim):
        clock = QuantizedClock(sim, resolution=0.003)
        for target in (0.001, 0.0142, 0.0299, 1.0001):
            sim.run(until=target)
            reading = clock.now()
            assert reading == pytest.approx(
                int(reading / 0.003 + 0.5 * 1e-9) * 0.003)

    def test_monotone(self, sim):
        clock = QuantizedClock(sim, resolution=0.01)
        previous = clock.now()
        for target in (0.004, 0.011, 0.02, 0.5):
            sim.run(until=target)
            assert clock.now() >= previous
            previous = clock.now()

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            QuantizedClock(sim, resolution=0.0)

