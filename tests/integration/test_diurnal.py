"""Integration: recovering a slow congestion cycle from delay spectra.

Mukherjee [19] — the minute-scale prior work the paper reviews — found a
clear diurnal cycle in spectral analyses of average delays, "suggesting the
presence of a base congestion level which changes slowly with time".  We
inject a (time-compressed) diurnal load profile into the single-bottleneck
network and recover its period from the probe trace's periodogram.
"""

import numpy as np
import pytest

from repro.analysis.timeseries import moving_average, periodogram
from repro.netdyn.session import run_probe_experiment
from repro.topology.presets import build_single_bottleneck
from repro.traffic.poisson import DiurnalProfile, ModulatedPoissonSource
from repro.traffic.base import TrafficSink
from repro.traffic.sizes import FixedSize
from repro.units import kbps

#: Compressed "day": 60 simulated seconds.
CYCLE = 60.0


def build_diurnal_scenario(seed=17):
    scenario = build_single_bottleneck(seed=seed, rate_bps=kbps(128))
    network = scenario.network
    profile = DiurnalProfile(base_pps=14.0, amplitude=0.8, period=CYCLE)
    sink = TrafficSink(network.host("cross-r"), port=9000)
    source = ModulatedPoissonSource(
        network.host("cross-l"), "cross-r", rate=profile,
        peak_rate_pps=14.0 * (1.0 + 0.8), sizes=FixedSize(512), port=9000)
    source.start()
    return scenario, profile


class TestDiurnalCycle:
    def test_periodogram_recovers_cycle(self):
        scenario, profile = build_diurnal_scenario()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.1,
                                     count=3000, start_at=10.0)
        spectrum = periodogram(trace)
        # Restrict to long periods (> 10 s): the diurnal band.
        slow = spectrum.frequencies < 0.1
        peak = spectrum.frequencies[slow][
            np.argmax(spectrum.power[slow])]
        assert 1.0 / peak == pytest.approx(CYCLE, rel=0.15)

    def test_moving_average_shows_base_level_swing(self):
        scenario, profile = build_diurnal_scenario(seed=18)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.1,
                                     count=3000, start_at=10.0)
        smoothed = moving_average(trace, window=100)
        swing = smoothed.max() - smoothed.min()
        assert swing > 0.02  # tens of ms of slow delay variation
