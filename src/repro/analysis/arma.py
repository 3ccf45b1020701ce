"""AR model fitting and one-step prediction for queueing delays.

Section 3 of the paper notes a parallel investigation: "whether ARMA models
are adequate to model queueing delays in communication networks", with
consequences for predictive congestion control [16].  This module provides
the autoregressive half of that program: Yule–Walker estimation, AIC-based
order selection, and one-step-ahead prediction error measurement, so the
question can be answered quantitatively on any trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.timeseries import autocorrelation_sums
from repro.errors import AnalysisError, FitError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class ARModel:
    """An autoregressive model ``x_t = mean + Σ phi_i (x_{t-i} - mean) + e``."""

    #: AR coefficients phi_1 .. phi_p.
    coefficients: np.ndarray
    #: Process mean subtracted before fitting.
    mean: float
    #: Innovation (residual) variance.
    noise_variance: float

    @property
    def order(self) -> int:
        """The model order p."""
        return len(self.coefficients)

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step predictions for ``series[order:]`` from its own past."""
        series = np.asarray(series, dtype=float)
        if len(series) <= self.order:
            raise AnalysisError("series shorter than model order")
        predictions = np.empty(len(series) - self.order)
        centered = series - self.mean
        for i in range(self.order, len(series)):
            window = centered[i - self.order:i][::-1]
            predictions[i - self.order] = self.mean + float(
                np.dot(self.coefficients, window))
        return predictions


def _autocovariances(series: np.ndarray, max_lag: int) -> np.ndarray:
    # Vectorized lagged-product sums shared with the sample ACF; the
    # Yule–Walker estimator divides by n (not n - lag) as usual.
    centered = series - series.mean()
    return autocorrelation_sums(centered, max_lag) / len(series)


def fit_ar(series: np.ndarray, order: int) -> ARModel:
    """Yule–Walker AR(p) fit.

    Raises
    ------
    FitError
        If the autocovariance matrix is singular (e.g. constant series).
    """
    series = np.asarray(series, dtype=float)
    if order < 1:
        raise AnalysisError(f"order must be >= 1, got {order}")
    if len(series) < 10 * order:
        raise InsufficientDataError(
            f"series of {len(series)} too short for AR({order})")
    gamma = _autocovariances(series, order)
    if gamma[0] <= 0:
        raise FitError("zero-variance series cannot be fit")
    # Toeplitz system R phi = r.
    matrix = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            matrix[i, j] = gamma[abs(i - j)]
    try:
        phi = np.linalg.solve(matrix, gamma[1:order + 1])
    except np.linalg.LinAlgError as exc:
        raise FitError(f"Yule-Walker system singular: {exc}") from exc
    noise_variance = float(gamma[0] - np.dot(phi, gamma[1:order + 1]))
    return ARModel(coefficients=phi, mean=float(series.mean()),
                   noise_variance=max(noise_variance, 0.0))


def select_order(series: np.ndarray, max_order: int = 10) -> int:
    """Pick the AR order minimizing AIC."""
    series = np.asarray(series, dtype=float)
    best_order, best_aic = 1, np.inf
    n = len(series)
    for order in range(1, max_order + 1):
        try:
            model = fit_ar(series, order)
        except (InsufficientDataError, FitError):
            break
        if model.noise_variance <= 0:
            continue
        aic = n * np.log(model.noise_variance) + 2 * order
        if aic < best_aic:
            best_aic, best_order = aic, order
    return best_order


@dataclass
class PredictionReport:
    """How well an AR model predicts a trace's delays one step ahead."""

    order: int
    #: Root-mean-square one-step prediction error, seconds.
    rmse: float
    #: RMSE of the trivial predictor x_{t+1} = x_t, for comparison.
    naive_rmse: float

    @property
    def skill(self) -> float:
        """1 − rmse/naive_rmse: positive means the AR model helps."""
        if self.naive_rmse == 0:
            return 0.0
        return 1.0 - self.rmse / self.naive_rmse


def evaluate_prediction(trace: ProbeTrace, order: int = 0,
                        ) -> PredictionReport:
    """Fit an AR model to a trace's rtts and report prediction skill.

    ``order = 0`` selects the order by AIC.  Losses are linearly
    interpolated (see :func:`repro.analysis.timeseries.autocorrelation`).
    """
    from repro.analysis.timeseries import _contiguous_valid
    series = _contiguous_valid(trace)
    if order == 0:
        order = select_order(series)
    model = fit_ar(series, order)
    predictions = model.predict_series(series)
    actual = series[model.order:]
    rmse = float(np.sqrt(np.mean((predictions - actual) ** 2)))
    naive_rmse = float(np.sqrt(np.mean(np.diff(series) ** 2)))
    return PredictionReport(order=model.order, rmse=rmse,
                            naive_rmse=naive_rmse)
