"""Tests for time-series statistics on delay traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import timeseries as timeseries_module
from repro.analysis.timeseries import (
    autocorrelation,
    autocorrelation_sums,
    periodic_spike_period,
    spike_clusters,
    summarize,
)
from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def trace_of(rtts, delta=0.05):
    return ProbeTrace.from_samples(delta=delta, rtts=rtts)


def loop_reference_sums(centered, max_lag):
    """The retired scalar loop, kept as the equivalence oracle."""
    n = len(centered)
    sums = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        sums[lag] = np.dot(centered[:n - lag], centered[lag:])
    return sums


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize(trace_of([0.1, 0.2, 0.3, 0.0]))
        assert summary.count == 3
        assert summary.mean == pytest.approx(0.2)
        assert summary.minimum == pytest.approx(0.1)
        assert summary.maximum == pytest.approx(0.3)
        assert summary.median == pytest.approx(0.2)

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(3)
        summary = summarize(trace_of((0.1 + rng.random(500) * 0.2).tolist()))
        assert summary.minimum <= summary.median <= summary.p90 \
            <= summary.p99 <= summary.maximum

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            summarize(trace_of([0.0, 0.0]))

    def test_single_sample_std(self):
        assert summarize(trace_of([0.1])).std == 0.0


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(4)
        trace = trace_of((0.1 + rng.random(200) * 0.1).tolist())
        acf = autocorrelation(trace, max_lag=5)
        assert acf[0] == pytest.approx(1.0)

    def test_periodic_series_has_periodic_acf(self):
        rtts = [0.1 + 0.05 * (i % 10 == 0) for i in range(400)]
        acf = autocorrelation(trace_of(rtts), max_lag=20)
        assert acf[10] > acf[5]
        assert acf[20] > acf[15]

    def test_white_noise_acf_small(self):
        rng = np.random.default_rng(5)
        trace = trace_of((0.1 + rng.random(2000) * 0.01).tolist())
        acf = autocorrelation(trace, max_lag=10)
        assert np.all(np.abs(acf[1:]) < 0.1)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            autocorrelation(trace_of([0.1] * 50), max_lag=0)
        with pytest.raises(InsufficientDataError):
            autocorrelation(trace_of([0.1] * 5), max_lag=10)
        with pytest.raises(InsufficientDataError):
            autocorrelation(trace_of([0.1] * 50), max_lag=5)  # constant

    def test_too_many_losses_rejected(self):
        rtts = [0.1, 0.0] * 50  # 50% losses
        with pytest.raises(InsufficientDataError):
            autocorrelation(trace_of(rtts + [0.0]), max_lag=5)

    def test_interpolates_occasional_losses(self):
        # A 2-second period sampled at delta = 0.1 s, ~6% of it lost: the
        # interpolated series keeps its period-20 correlation.
        n, delta, period = 1000, 0.1, 2.0
        t = np.arange(n) * delta
        rtts = 0.15 + 0.05 * np.sin(2 * np.pi * t / period)
        rtts[::17] = 0.0
        acf = autocorrelation(trace_of(rtts.tolist(), delta=delta),
                              max_lag=20)
        assert acf[20] > 0.9
        assert acf[10] < -0.9


class TestAutocorrelationSums:
    """The vectorized lag-sum kernel must match the scalar loop exactly.

    ``autocorrelation_sums`` replaced a per-lag Python loop with
    ``np.correlate`` (short series) and an FFT path (long series); both
    routes are held to the retired loop as the oracle.
    """

    @given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False, width=32),
                           min_size=2, max_size=64),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_correlate_path_matches_loop(self, values, data):
        series = np.array(values, dtype=float)
        centered = series - series.mean()
        max_lag = data.draw(st.integers(0, len(series) - 1))
        got = autocorrelation_sums(centered, max_lag)
        want = loop_reference_sums(centered, max_lag)
        assert got.shape == (max_lag + 1,)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    @given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False, width=32),
                           min_size=2, max_size=64),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fft_path_matches_loop(self, values, data):
        series = np.array(values, dtype=float)
        centered = series - series.mean()
        max_lag = data.draw(st.integers(0, len(series) - 1))
        # Force the FFT branch regardless of series length (a plain
        # monkeypatch fixture is function-scoped, which hypothesis
        # rejects inside @given).
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timeseries_module, "_FFT_MIN_SIZE", 1)
            got = autocorrelation_sums(centered, max_lag)
        want = loop_reference_sums(centered, max_lag)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    def test_long_series_takes_fft_path(self):
        # Above the crossover the FFT route runs for real (no
        # monkeypatching) and must still reproduce the loop.
        rng = np.random.default_rng(11)
        centered = rng.normal(size=5000)
        centered -= centered.mean()
        got = autocorrelation_sums(centered, max_lag=40)
        want = loop_reference_sums(centered, max_lag=40)
        assert np.allclose(got, want, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            autocorrelation_sums(np.zeros(4), max_lag=-1)
        with pytest.raises(AnalysisError):
            autocorrelation_sums(np.zeros(4), max_lag=4)


class TestSpikes:
    def test_cluster_extraction(self):
        rtts = [0.1] * 100
        for start in (10, 50, 90):
            for i in range(3):
                rtts[start + i] = 2.0
        trace = trace_of(rtts, delta=1.0)
        clusters = spike_clusters(trace, threshold=1.0, guard=5.0)
        assert clusters.tolist() == [10.0, 50.0, 90.0]

    def test_periodic_spike_period(self):
        rtts = [0.1] * 100
        for start in (10, 50, 90):
            rtts[start] = 2.0
        trace = trace_of(rtts, delta=1.0)
        assert periodic_spike_period(trace, threshold=1.0) == \
            pytest.approx(40.0)

    def test_no_spikes(self):
        trace = trace_of([0.1] * 10)
        assert len(spike_clusters(trace, threshold=1.0)) == 0
        with pytest.raises(InsufficientDataError):
            periodic_spike_period(trace, threshold=1.0)

    def test_long_cluster_not_split(self):
        # Regression: a single fault lasting 3x the guard interval used to
        # be split into several clusters because each spike was compared
        # against the cluster's *start* instead of the most recent spike.
        guard = 5.0
        rtts = [0.1] * 100
        for i in range(20, 35):  # one 15 s fault (3 * guard), spikes 1 s apart
            rtts[i] = 2.0
        rtts[60] = 2.0  # a separate later fault
        trace = trace_of(rtts, delta=1.0)
        clusters = spike_clusters(trace, threshold=1.0, guard=guard)
        assert clusters.tolist() == [20.0, 60.0]

    def test_long_cluster_period_not_inflated(self):
        # The same regression inflated periodic_spike_period: two 15 s
        # faults 50 s apart must yield a 50 s period, not the intra-fault
        # spike spacing.
        rtts = [0.1] * 120
        for start in (10, 60):
            for i in range(start, start + 15):
                rtts[i] = 2.0
        trace = trace_of(rtts, delta=1.0)
        assert periodic_spike_period(trace, threshold=1.0, guard=5.0) == \
            pytest.approx(50.0)

    def test_guard_validation(self):
        with pytest.raises(AnalysisError):
            spike_clusters(trace_of([0.1]), threshold=1.0, guard=0.0)


class TestOnRealSimulation:
    def test_loaded_trace_summary_sane(self, loaded_trace):
        summary = summarize(loaded_trace)
        assert 0.13 <= summary.minimum <= 0.16
        assert summary.mean < 0.6
        assert summary.maximum < 1.5

    def test_queueing_delays_positively_correlated(self, loaded_trace):
        acf = autocorrelation(loaded_trace, max_lag=3)
        assert acf[1] > 0.3  # consecutive probes see similar queues
