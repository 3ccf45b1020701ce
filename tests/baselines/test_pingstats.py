"""Tests for the Mukherjee-style grouped ICMP baseline [19]."""

import numpy as np
import pytest

from repro.analysis.distributions import fit_constant_plus_gamma
from repro.baselines.pingstats import grouped_ping
from repro.errors import ConfigurationError
from repro.netdyn.trace import ProbeTrace
from repro.traffic.mix import attach_internet_mix
from repro.units import kbps

from tests.topology.single_bottleneck import build_single_bottleneck


def loaded_scenario(seed=4, utilization=0.6):
    scenario = build_single_bottleneck(seed=seed)
    mix = attach_internet_mix(
        scenario.network.host("cross-l"), scenario.network.host("cross-r"),
        link_rate_bps=kbps(128), utilization=utilization)
    mix.start()
    return scenario


class TestGroupedPing:
    def test_group_structure(self):
        scenario = build_single_bottleneck(seed=4)
        result = grouped_ping(scenario.network, "src", "echo", groups=3,
                              group_size=5, packet_interval=0.5,
                              group_interval=10.0)
        assert result.groups == 3
        assert len(result.all_rtts) == 15

    def test_idle_path_no_loss_constant_means(self):
        scenario = build_single_bottleneck(seed=4)
        result = grouped_ping(scenario.network, "src", "echo", groups=3,
                              group_size=4, packet_interval=0.5,
                              group_interval=10.0)
        assert np.mean(result.group_loss) == 0.0
        assert np.nanstd(result.group_means) < 1e-6

    def test_loaded_path_variation(self):
        scenario = loaded_scenario()
        result = grouped_ping(scenario.network, "src", "echo", groups=4,
                              group_size=10, packet_interval=1.0,
                              group_interval=30.0)
        valid = result.group_means[~np.isnan(result.group_means)]
        assert len(valid) >= 3
        assert valid.std() > 0  # queueing varies across groups

    def test_delay_model_fit(self):
        scenario = loaded_scenario()
        result = grouped_ping(scenario.network, "src", "echo", groups=6,
                              group_size=10, packet_interval=0.5,
                              group_interval=20.0)
        valid = result.all_rtts[~np.isnan(result.all_rtts)]
        fit = fit_constant_plus_gamma(
            ProbeTrace.from_samples(delta=1.0, rtts=valid.tolist()))
        assert fit.shape > 0
        assert fit.scale > 0
        assert fit.constant < np.nanmin(result.all_rtts)

    def test_validation(self):
        scenario = build_single_bottleneck(seed=4)
        with pytest.raises(ConfigurationError):
            grouped_ping(scenario.network, "src", "echo", groups=0)
        with pytest.raises(ConfigurationError):
            grouped_ping(scenario.network, "src", "echo", groups=1,
                         group_size=10, packet_interval=1.0,
                         group_interval=5.0)  # overlapping groups


class TestMethodologyComparison:
    def test_group_averages_hide_fast_structure(self):
        """The paper's motivation for dense probing: per-minute averages
        cannot show probe compression or ms-scale fluctuations."""
        from repro.netdyn.session import run_probe_experiment
        scenario = loaded_scenario(seed=8)
        dense = run_probe_experiment(scenario.network, "src", "echo",
                                     delta=0.02, count=2000, start_at=5.0)
        dense_jumps = np.abs(np.diff(dense.rtts[dense.received]))
        scenario2 = loaded_scenario(seed=8)
        grouped = grouped_ping(scenario2.network, "src", "echo", groups=4,
                               group_size=10, packet_interval=1.0,
                               group_interval=15.0)
        means = grouped.group_means[~np.isnan(grouped.group_means)]
        group_jumps = np.abs(np.diff(means))
        # Dense probing sees larger instantaneous variation than the
        # per-minute group means suggest.
        assert dense_jumps.max() > group_jumps.max()
