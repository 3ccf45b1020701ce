"""Tests for delay-distribution fitting (constant + gamma, [19])."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.distributions import fit_constant_plus_gamma
from repro.errors import FitError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def gamma_trace(constant=0.14, shape=2.0, scale=0.02, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    rtts = constant + rng.gamma(shape, scale, size=n)
    return ProbeTrace.from_samples(delta=0.05, rtts=rtts.tolist())


def fitted_quantile(fit, q):
    """Inverse CDF of a fitted ``D + Gamma(shape, scale)`` model."""
    return fit.constant + float(
        scipy_stats.gamma.ppf(q, fit.shape, scale=fit.scale))


class TestConstantPlusGamma:
    def test_recovers_known_parameters(self):
        fit = fit_constant_plus_gamma(gamma_trace(), constant=0.14)
        assert fit.shape == pytest.approx(2.0, rel=0.15)
        assert fit.scale == pytest.approx(0.02, rel=0.15)

    def test_good_fit_passes_ks(self):
        fit = fit_constant_plus_gamma(gamma_trace(), constant=0.14)
        assert fit.ks_p_value > 0.01

    def test_default_constant_below_min(self):
        trace = gamma_trace()
        fit = fit_constant_plus_gamma(trace)
        assert fit.constant < trace.min_rtt()

    def test_moments(self):
        fit = fit_constant_plus_gamma(gamma_trace(), constant=0.14)
        assert fit.mean == pytest.approx(0.14 + 2.0 * 0.02, rel=0.1)
        assert fit.variance == pytest.approx(2.0 * 0.02 ** 2, rel=0.3)

    def test_quantile_monotone(self):
        fit = fit_constant_plus_gamma(gamma_trace())
        assert (fitted_quantile(fit, 0.5) < fitted_quantile(fit, 0.9)
                < fitted_quantile(fit, 0.99))
        assert fitted_quantile(fit, 0.5) > fit.constant

    def test_wrong_model_fails_ks(self):
        # Uniform delays are a bad gamma unless shape compensates; use a
        # bimodal distribution which gamma cannot capture.
        rng = np.random.default_rng(1)
        rtts = np.where(rng.random(3000) < 0.5,
                        0.14 + rng.normal(0.001, 1e-4, 3000),
                        0.4 + rng.normal(0.001, 1e-4, 3000))
        trace = ProbeTrace.from_samples(delta=0.05,
                                        rtts=np.abs(rtts).tolist())
        fit = fit_constant_plus_gamma(trace)
        assert fit.ks_p_value < 0.01

    def test_constant_delays_rejected_as_degenerate(self):
        trace = ProbeTrace.from_samples(delta=0.05, rtts=[0.14] * 100)
        with pytest.raises(FitError):
            fit_constant_plus_gamma(trace)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_constant_plus_gamma(
                ProbeTrace.from_samples(delta=0.05, rtts=[0.1] * 5))

    def test_constant_above_samples_rejected(self):
        with pytest.raises(FitError):
            fit_constant_plus_gamma(gamma_trace(), constant=10.0)


class TestOnRealSimulation:
    def test_constant_plus_gamma_fits_simulated_path(self, loaded_trace):
        """The [19] delay model applies to our simulated path too."""
        fit = fit_constant_plus_gamma(loaded_trace)
        assert 0.1 <= fit.constant <= 0.16
        assert fit.shape > 0
        # The KS statistic should at least show a rough fit (the trace is
        # quantized and autocorrelated, so p-values are not meaningful).
        assert fit.ks_statistic < 0.2
