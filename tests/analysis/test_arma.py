"""Tests for AR fitting and delay prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.arma import (
    _autocovariances,
    evaluate_prediction,
    fit_ar,
    select_order,
)
from repro.errors import AnalysisError, FitError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def ar1_series(phi=0.8, n=5000, noise=0.1, mean=1.0, seed=0):
    rng = np.random.default_rng(seed)
    series = np.empty(n)
    series[0] = mean
    for i in range(1, n):
        series[i] = mean + phi * (series[i - 1] - mean) \
            + rng.normal(0, noise)
    return series


def loop_autocovariances(series, max_lag):
    """The retired per-lag loop, kept as the equivalence oracle."""
    centered = series - series.mean()
    n = len(series)
    gammas = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        gammas[lag] = np.dot(centered[:n - lag], centered[lag:]) / n
    return gammas


class TestAutocovariances:
    @given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False, width=32),
                           min_size=4, max_size=80),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_loop(self, values, data):
        series = np.array(values, dtype=float)
        max_lag = data.draw(st.integers(0, len(series) - 1))
        got = _autocovariances(series, max_lag)
        want = loop_autocovariances(series, max_lag)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    def test_long_series_fft_route_matches_loop(self):
        series = ar1_series(n=6000)  # above the FFT crossover
        got = _autocovariances(series, max_lag=25)
        want = loop_autocovariances(series, max_lag=25)
        assert np.allclose(got, want, rtol=1e-10)


class TestFitAr:
    def test_recovers_ar1_coefficient(self):
        model = fit_ar(ar1_series(phi=0.8), order=1)
        assert model.coefficients[0] == pytest.approx(0.8, abs=0.05)
        assert model.mean == pytest.approx(1.0, abs=0.1)

    def test_noise_variance_estimate(self):
        model = fit_ar(ar1_series(phi=0.5, noise=0.2), order=1)
        assert model.noise_variance == pytest.approx(0.04, rel=0.2)

    def test_higher_order_fits_ar1(self):
        model = fit_ar(ar1_series(phi=0.7), order=3)
        assert model.coefficients[0] == pytest.approx(0.7, abs=0.1)
        assert abs(model.coefficients[2]) < 0.1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fit_ar(ar1_series(n=100), order=0)
        with pytest.raises(InsufficientDataError):
            fit_ar(np.ones(15), order=5)
        with pytest.raises(FitError):
            fit_ar(np.ones(100), order=2)  # zero variance


class TestPrediction:
    def test_predict_next_uses_recent_history(self):
        model = fit_ar(ar1_series(phi=0.9), order=1)
        high, = model.predict_series(np.array([2.0, 0.0]))
        low, = model.predict_series(np.array([0.0, 0.0]))
        assert high > model.mean > low

    def test_predict_series_beats_noise_only_model(self):
        series = ar1_series(phi=0.9, noise=0.05)
        model = fit_ar(series, order=1)
        predictions = model.predict_series(series)
        errors = predictions - series[1:]
        assert np.std(errors) < 0.8 * np.std(series - series.mean())

    def test_history_too_short(self):
        model = fit_ar(ar1_series(), order=3)
        with pytest.raises(AnalysisError):
            model.predict_series(np.array([1.0, 2.0, 3.0]))


class TestSelectOrder:
    def test_prefers_low_order_for_ar1(self):
        order = select_order(ar1_series(phi=0.8), max_order=6)
        assert order <= 3

    def test_ar2_needs_second_lag(self):
        rng = np.random.default_rng(2)
        n = 8000
        series = np.zeros(n)
        for i in range(2, n):
            # AR(2) with an oscillatory component: phi2 strongly negative.
            series[i] = 1.2 * series[i - 1] - 0.7 * series[i - 2] \
                + rng.normal(0, 0.1)
        assert select_order(series, max_order=6) >= 2


class TestEvaluatePrediction:
    def test_report_on_smooth_trace(self):
        # Smooth AR-like delays: prediction should beat the naive model.
        series = ar1_series(phi=0.95, noise=0.01, mean=0.2)
        trace = ProbeTrace.from_samples(delta=0.05,
                                        rtts=np.abs(series).tolist())
        report = evaluate_prediction(trace, order=1)
        assert report.rmse > 0
        assert report.naive_rmse > 0

    def test_order_zero_selects_automatically(self, loaded_trace):
        report = evaluate_prediction(loaded_trace)
        assert report.order >= 1

    def test_skill_definition(self):
        series = ar1_series(phi=0.9, noise=0.02, mean=0.5)
        trace = ProbeTrace.from_samples(delta=0.05,
                                        rtts=np.abs(series).tolist())
        report = evaluate_prediction(trace, order=2)
        assert report.skill == pytest.approx(
            1.0 - report.rmse / report.naive_rmse)
