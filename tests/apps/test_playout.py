"""Tests for playback-buffer simulation."""

import numpy as np
import pytest

from repro.apps.playout import (
    AdaptivePlayout,
    PlayoutReport,
    playout_delay_for_loss,
)
from repro.errors import ConfigurationError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def fixed_playout(trace, playout_delay):
    """Play the trace with one constant playout delay (the oracle)."""
    if playout_delay <= 0:
        raise ConfigurationError(
            f"playout delay must be positive, got {playout_delay}")
    delays = np.where(trace.received, trace.rtts, np.nan)
    received = ~np.isnan(delays)
    if not received.any():
        raise InsufficientDataError("no received packets")
    on_time = received & (delays <= playout_delay)
    late = received & ~on_time
    buffering = playout_delay - delays[on_time]
    return PlayoutReport(
        network_loss=float(np.mean(~received)),
        late_loss=float(np.mean(late)),
        mean_buffering=float(buffering.mean()) if buffering.size else 0.0,
        playout_delay=playout_delay)


def jittery_trace(base=0.14, jitter=0.05, loss=0.05, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    delays = base + rng.exponential(jitter, size=n)
    delays[rng.random(n) < loss] = 0.0  # network losses
    return ProbeTrace.from_samples(delta=0.05, rtts=delays.tolist())


class TestFixedPlayout:
    """The constant-delay oracle the sizing and adaptive tests rely on."""

    def test_huge_delay_no_late_loss(self):
        trace = jittery_trace()
        report = fixed_playout(trace, playout_delay=10.0)
        assert report.late_loss == 0.0
        assert report.network_loss == pytest.approx(trace.loss_fraction)

    def test_tiny_delay_everything_late(self):
        trace = jittery_trace()
        report = fixed_playout(trace, playout_delay=0.141)
        assert report.late_loss > 0.5

    def test_buffering_cost_grows_with_delay(self):
        trace = jittery_trace()
        small = fixed_playout(trace, playout_delay=0.25)
        large = fixed_playout(trace, playout_delay=0.5)
        assert large.mean_buffering > small.mean_buffering
        assert large.late_loss <= small.late_loss

    def test_validation(self):
        trace = jittery_trace()
        with pytest.raises(ConfigurationError):
            fixed_playout(trace, playout_delay=0.0)
        all_lost = ProbeTrace.from_samples(delta=0.05, rtts=[0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            fixed_playout(all_lost, playout_delay=0.3)


class TestSizing:
    def test_meets_late_loss_target(self):
        trace = jittery_trace(n=5000)
        delay = playout_delay_for_loss(trace, target_late_loss=0.02)
        report = fixed_playout(trace, playout_delay=delay)
        assert report.late_loss <= 0.025

    def test_stricter_target_larger_buffer(self):
        trace = jittery_trace(n=5000)
        assert playout_delay_for_loss(trace, 0.001) > \
            playout_delay_for_loss(trace, 0.1)

    def test_validation(self):
        trace = jittery_trace()
        with pytest.raises(ConfigurationError):
            playout_delay_for_loss(trace, 0.0)


class TestAdaptivePlayout:
    def test_tracks_delay_shift(self):
        """After a congestion step the estimator adapts; a fixed buffer
        sized for the quiet period does not."""
        rng = np.random.default_rng(2)
        quiet = 0.14 + rng.exponential(0.01, size=2000)
        busy = 0.30 + rng.exponential(0.01, size=2000)
        rtts = np.concatenate([quiet, busy])
        trace = ProbeTrace.from_samples(delta=0.05, rtts=rtts.tolist())
        adaptive = AdaptivePlayout(alpha=0.95, safety=4.0).play(trace)
        fixed = fixed_playout(trace, playout_delay=float(
            np.quantile(quiet, 0.99)))
        assert adaptive.late_loss < fixed.late_loss

    def test_buffering_smaller_than_worst_case_fixed(self):
        trace = jittery_trace(n=4000)
        adaptive = AdaptivePlayout().play(trace)
        worst_case = fixed_playout(
            trace, playout_delay=float(trace.valid_rtts.max()))
        assert adaptive.mean_buffering < worst_case.mean_buffering

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptivePlayout(alpha=1.5)
        with pytest.raises(ConfigurationError):
            AdaptivePlayout(safety=-1.0)

    def test_report_on_real_trace(self, loaded_trace):
        report = AdaptivePlayout().play(loaded_trace)
        assert 0.0 <= report.late_loss <= 1.0
        assert report.playout_delay > 0.13
