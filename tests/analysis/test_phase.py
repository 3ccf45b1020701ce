"""Tests for phase-plot analysis: diagonal, compression line, μ estimation."""

import numpy as np
import pytest

from repro.analysis.phase import (
    diagonal_fraction,
    estimate_bottleneck_mu,
    fit_compression_line,
    phase_points,
)
from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def synthetic_trace(delta=0.05, mu=128e3, wire_bytes=72, n=400,
                    compressed_fraction=0.3, base=0.14, seed=0):
    """A trace with a known mix of diagonal and compression-line pairs."""
    rng = np.random.default_rng(seed)
    rtts = [base + 0.1]
    service = wire_bytes * 8 / mu
    for _ in range(n - 1):
        if rng.random() < compressed_fraction and rtts[-1] > base + delta:
            rtts.append(rtts[-1] + service - delta)  # compression line
        else:
            level = base + rng.uniform(0.0, 0.3)
            rtts.append(level)
            rtts.append(level + rng.normal(0.0, 5e-4))  # diagonal pair
    return ProbeTrace.from_samples(delta=delta, rtts=rtts[:n],
                                   wire_bytes=wire_bytes)


class TestPhasePoints:
    def test_pairs_of_received_probes(self):
        trace = ProbeTrace.from_samples(delta=0.05,
                                        rtts=[0.1, 0.2, 0.0, 0.3, 0.4])
        plot = phase_points(trace)
        # Pairs: (0.1,0.2), (0.3,0.4); pairs with a loss are excluded.
        assert plot.x.tolist() == [0.1, 0.3]
        assert plot.y.tolist() == [0.2, 0.4]

    def test_all_lost_raises(self):
        trace = ProbeTrace.from_samples(delta=0.05, rtts=[0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            phase_points(trace)

    def test_carries_delta_and_size(self):
        trace = ProbeTrace.from_samples(delta=0.02, rtts=[0.1, 0.2],
                                        wire_bytes=72)
        plot = phase_points(trace)
        assert plot.delta == 0.02
        assert plot.wire_bits == 576


class TestDiagonalFraction:
    def test_pure_diagonal(self):
        trace = ProbeTrace.from_samples(delta=0.5,
                                        rtts=[0.14, 0.141, 0.14, 0.142])
        assert diagonal_fraction(phase_points(trace)) == 1.0

    def test_mixed(self):
        trace = ProbeTrace.from_samples(delta=0.5,
                                        rtts=[0.14, 0.141, 0.30, 0.301])
        # Pairs: (0.14,0.141) diag, (0.141,0.30) not, (0.30,0.301) diag.
        assert diagonal_fraction(phase_points(trace)) == pytest.approx(2 / 3)


class TestCompressionLine:
    def test_recovers_mu_from_synthetic_trace(self):
        trace = synthetic_trace(mu=128e3)
        fit = fit_compression_line(phase_points(trace), mu_hint=128e3,
                                   tolerance=1e-3)
        assert fit.point_count > 20
        assert fit.mu_estimate == pytest.approx(128e3, rel=0.1)

    def test_x_intercept_is_delta_minus_service(self):
        trace = synthetic_trace(delta=0.05, mu=128e3)
        fit = fit_compression_line(phase_points(trace), mu_hint=128e3,
                                   tolerance=1e-3)
        assert fit.x_intercept == pytest.approx(0.05 - 576 / 128e3, abs=2e-3)

    def test_tolerates_mu_hint_error(self):
        trace = synthetic_trace(mu=128e3)
        fit = fit_compression_line(phase_points(trace), mu_hint=200e3,
                                   tolerance=3e-3)
        assert fit.mu_estimate == pytest.approx(128e3, rel=0.15)

    def test_no_compression_yields_no_estimate(self):
        trace = synthetic_trace(compressed_fraction=0.0)
        fit = fit_compression_line(phase_points(trace), mu_hint=128e3,
                                   tolerance=5e-4)
        assert fit.point_count == 0
        assert fit.mu_estimate is None
        assert fit.x_intercept is None

    def test_bad_hint_rejected(self):
        trace = synthetic_trace()
        with pytest.raises(AnalysisError):
            fit_compression_line(phase_points(trace), mu_hint=0.0)

    def test_one_call_estimator(self):
        trace = synthetic_trace(mu=128e3)
        mu = estimate_bottleneck_mu(trace, mu_hint=128e3, tolerance=1e-3)
        assert mu == pytest.approx(128e3, rel=0.1)


class TestFixedDelay:
    """D, the fixed round-trip component, is the minimum rtt."""

    def test_min_rtt(self):
        trace = ProbeTrace.from_samples(delta=0.05, rtts=[0.3, 0.14, 0.5])
        assert trace.min_rtt() == pytest.approx(0.14)


class TestOnRealSimulation:
    """Phase analysis on traces from the calibrated topology."""

    def test_fixed_delay_on_loaded_path(self, loaded_trace):
        assert 0.12 <= loaded_trace.min_rtt() <= 0.16

    def test_mu_estimate_on_loaded_path(self, loaded_trace):
        mu = estimate_bottleneck_mu(loaded_trace, mu_hint=128e3)
        assert mu is not None
        assert 90e3 <= mu <= 170e3

    def test_compression_visible_at_50ms(self, loaded_trace):
        fit = fit_compression_line(phase_points(loaded_trace),
                                   mu_hint=128e3)
        assert fit.point_count > 10
