"""Cross-module integration tests: the library's main claims, end to end."""

import numpy as np
import pytest

from repro.analysis.compression import detect_compression
from repro.analysis.loss import loss_stats
from repro.analysis.phase import estimate_bottleneck_mu
from repro.analysis.workload import probe_gap_samples
from repro.netdyn.session import run_probe_experiment
from repro.queueing.batchmodel import (
    BatchArrivalQueue,
    geometric_packet_batches,
)
from repro.topology.inria_umd import build_inria_umd
from repro.traffic.mix import attach_internet_mix
from repro.units import kbps

from tests.topology.single_bottleneck import build_single_bottleneck


class TestMeasurementPipeline:
    """Simulate -> probe -> analyze, checking physical consistency."""

    def test_rtt_floor_equals_path_physics(self):
        scenario = build_single_bottleneck(seed=2)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=40)
        # Fixed component: 2 x (prop 50 ms + 72 B at 128 kb/s) plus the
        # fast access links.  Compute it from first principles.
        service = 72 * 8 / kbps(128)
        access = 3 * 72 * 8 / 10e6 + 3 * 0.0001
        expected = 2 * (0.05 + service + access)
        assert trace.min_rtt() == pytest.approx(expected, rel=0.02)

    def test_probe_gaps_conserve_time(self):
        """Sum of return gaps ~= elapsed send time for received runs."""
        scenario = build_single_bottleneck(seed=2)
        mix = attach_internet_mix(
            scenario.network.host("cross-l"),
            scenario.network.host("cross-r"),
            link_rate_bps=kbps(128), utilization=0.5)
        mix.start()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=500,
                                     start_at=5.0)
        if trace.loss_count == 0:
            gaps = probe_gap_samples(trace)
            total = gaps.sum()
            expected = (len(trace) - 1) * trace.delta
            assert total == pytest.approx(expected, rel=0.01)

    def test_bandwidth_estimate_from_probes_alone(self):
        """The headline Section 4 result, end to end on the full path."""
        scenario = build_inria_umd(seed=12)
        scenario.start_traffic()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.02, count=3000,
                                     start_at=30.0)
        mu = estimate_bottleneck_mu(trace, mu_hint=150e3)
        assert mu is not None
        assert 90e3 <= mu <= 180e3  # actual: 128 kb/s


class TestModelVsNetwork:
    """Figure 3's reduction: the batch queue model vs the full path."""

    def test_model_reproduces_network_compression(self):
        # Full network measurement.
        scenario = build_inria_umd(seed=13)
        scenario.start_traffic()
        network_trace = run_probe_experiment(
            scenario.network, scenario.source, scenario.echo, delta=0.02,
            count=4000, start_at=30.0)
        network_compression = detect_compression(network_trace, mu=128e3)

        # Abstract model with matched parameters.
        batch = geometric_packet_batches(3.0, 552 * 8,
                                         arrival_probability=0.25)
        model = BatchArrivalQueue(mu=128e3, buffer_packets=15, delta=0.02,
                                  probe_bits=576.0, batch_bits=batch)
        model_trace = model.run(4000, np.random.default_rng(13)).to_trace(
            fixed_delay=0.137)
        model_compression = detect_compression(model_trace, mu=128e3)

        assert network_compression.pair_fraction > 0.02
        assert model_compression.pair_fraction > 0.02

    def test_model_and_network_loss_orders_match(self):
        """Both show the δ=8ms >> δ=200ms loss ordering of Table 3."""
        losses = {}
        for delta in (0.008, 0.2):
            scenario = build_inria_umd(seed=14)
            scenario.start_traffic()
            count = 4000 if delta < 0.1 else 600
            trace = run_probe_experiment(scenario.network, scenario.source,
                                         scenario.echo, delta=delta,
                                         count=count, start_at=30.0)
            losses[delta] = loss_stats(trace)
        assert losses[0.008].ulp > losses[0.2].ulp
        assert losses[0.008].clp > losses[0.2].clp


class TestPhasePlotRegimes:
    """The paper's three phase-plot regimes on one simulated system."""

    def test_small_delta_compression_large_delta_diagonal(self):
        results = {}
        for delta in (0.02, 0.5):
            scenario = build_inria_umd(seed=15)
            scenario.start_traffic()
            count = 3000 if delta < 0.1 else 400
            trace = run_probe_experiment(scenario.network, scenario.source,
                                         scenario.echo, delta=delta,
                                         count=count, start_at=30.0)
            results[delta] = detect_compression(trace, mu=128e3)
        assert results[0.02].pair_fraction > 5 * max(
            results[0.5].pair_fraction, 1e-6) or \
            results[0.5].pair_fraction == 0.0
