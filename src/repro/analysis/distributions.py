"""Delay-distribution fitting: the constant-plus-gamma model of [19].

Mukherjee's study — which the paper reviews as the reference for behavior
over minute time scales — finds end-to-end delay best modeled by a constant
(the fixed path delay D) plus a gamma-distributed variable part.  This
module fits that model to a trace, with a Kolmogorov–Smirnov
goodness-of-fit check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FitError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class ConstantPlusGammaFit:
    """Fitted parameters of ``rtt = D + Gamma(shape, scale)``."""

    #: The constant (location) component, seconds.
    constant: float
    #: Gamma shape parameter (a).
    shape: float
    #: Gamma scale parameter (seconds).
    scale: float
    #: Kolmogorov-Smirnov statistic of the fit.
    ks_statistic: float
    #: KS p-value (large = cannot reject the model).
    ks_p_value: float

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        return self.constant + self.shape * self.scale

    @property
    def variance(self) -> float:
        """Variance of the fitted distribution."""
        return self.shape * self.scale ** 2


def fit_constant_plus_gamma(trace: ProbeTrace,
                            constant: Optional[float] = None,
                            ) -> ConstantPlusGammaFit:
    """Fit ``D + gamma`` to the received rtts of a trace.

    ``constant`` defaults to just below the minimum observed rtt (the
    gamma's support must start at 0; we leave the smallest sample a small
    positive variable part).
    """
    valid = trace.valid_rtts
    if valid.size < 20:
        raise InsufficientDataError(
            f"need >= 20 received probes to fit, have {valid.size}")
    if constant is None:
        spread = max(valid.max() - valid.min(), 1e-6)
        # Dimensionless back-off (0.1% of the spread), not a unit conversion.
        constant = float(valid.min()) - 1e-3 * spread  # repro: noqa[UNIT001]
    excess = valid - constant
    if np.any(excess <= 0):
        raise FitError("constant must lie strictly below every sample")
    spread = float(excess.std())
    if spread < 1e-9 or spread < 1e-4 * float(excess.mean()):
        raise FitError(
            "delays are (nearly) constant; a gamma fit is degenerate")
    from scipy import stats  # scipy loads only when called

    try:
        shape, _, scale = stats.gamma.fit(excess, floc=0.0)
    except Exception as exc:  # scipy raises bare Exceptions on bad input
        raise FitError(f"gamma fit failed: {exc}") from exc
    ks = stats.kstest(excess, "gamma", args=(shape, 0.0, scale))
    return ConstantPlusGammaFit(constant=float(constant), shape=float(shape),
                                scale=float(scale),
                                ks_statistic=float(ks.statistic),
                                ks_p_value=float(ks.pvalue))

