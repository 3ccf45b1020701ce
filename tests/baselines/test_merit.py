"""Tests for the Merit-style 15-minute sampling baseline [6]."""

import numpy as np
import pytest

from repro.baselines.merit import merit_sampling, MeritStats
from repro.errors import ConfigurationError

from tests.topology.single_bottleneck import build_single_bottleneck


class TestMeritSampling:
    def test_one_sample_per_interval(self):
        scenario = build_single_bottleneck(seed=4)
        stats = merit_sampling(scenario.network, "src", "echo",
                               intervals=5, interval=10.0)
        assert len(stats.samples) == 5
        assert stats.availability() == 1.0

    def test_clock_advances_by_intervals(self):
        scenario = build_single_bottleneck(seed=4)
        merit_sampling(scenario.network, "src", "echo", intervals=4,
                       interval=10.0)
        assert scenario.sim.now == pytest.approx(40.0)

    def test_availability_with_losses(self):
        stats = MeritStats(samples=np.array([0.1, np.nan, 0.2, 0.3]),
                           interval=10.0)
        assert stats.availability() == pytest.approx(0.75)

    def test_validation(self):
        scenario = build_single_bottleneck(seed=4)
        with pytest.raises(ConfigurationError):
            merit_sampling(scenario.network, "src", "echo", intervals=0)
        with pytest.raises(ConfigurationError):
            merit_sampling(scenario.network, "src", "echo", intervals=1,
                           interval=0.0)

    def test_coarse_sampling_misses_transients(self):
        """The paper's criticism: a 90 s stall between samples is
        invisible to interval sampling but obvious to dense probing."""
        from repro.net.faults import PeriodicStallFault
        scenario = build_single_bottleneck(seed=4)
        stall = PeriodicStallFault(period=30.0, stall=1.0, phase=5.0)
        scenario.bottleneck_fwd.add_egress_fault(stall)
        stats = merit_sampling(scenario.network, "src", "echo",
                               intervals=4, interval=30.0)
        # Samples at t = 0, 30, 60, 90 — never inside the stall windows
        # at [5, 6), [35, 36), ...; the fault goes unnoticed.
        valid = stats.samples[~np.isnan(stats.samples)]
        assert valid.max() - valid.min() < 5e-3
