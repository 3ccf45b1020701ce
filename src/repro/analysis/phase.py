"""Phase-plot construction and structure detection (Section 4).

A phase plot places a marker at ``(rtt_n, rtt_{n+1})`` for every pair of
consecutively received probes.  Its structure identifies the regime:

* points hugging the diagonal ``y = x`` near ``(D, D)``: light traffic
  (equation 1);
* points on the *probe compression line* ``y = x + P/μ − δ``: probes
  queued back-to-back behind a large cross-traffic packet (equation 3).

The compression line crosses the x-axis at ``x = δ − P/μ``, which turns a
phase plot into a bottleneck-bandwidth estimator: the paper reads 48 ms off
Figure 2 and recovers μ ≈ 130 kb/s for the 128 kb/s transatlantic link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace
from repro.units import bytes_to_bits


@dataclass
class PhasePlot:
    """The point set ``(rtt_n, rtt_{n+1})`` of a trace."""

    x: np.ndarray
    y: np.ndarray
    delta: float
    wire_bits: float

    def __len__(self) -> int:
        return len(self.x)


def phase_points(trace: ProbeTrace) -> PhasePlot:
    """Extract phase-plane points from consecutively received probes."""
    r = trace.rtts
    both = trace.received[:-1] & trace.received[1:]
    if not np.any(both):
        raise InsufficientDataError(
            "no pair of consecutive probes was received")
    return PhasePlot(x=r[:-1][both], y=r[1:][both], delta=trace.delta,
                     wire_bits=bytes_to_bits(trace.wire_bytes))


@dataclass
class CompressionLineFit:
    """Result of locating the probe compression line in a phase plot."""

    #: Number of points attributed to the compression line.
    point_count: int
    #: Fraction of all phase points on the line.
    fraction: float
    #: Mean of ``rtt_{n+1} - rtt_n`` over the line's points (= P/μ − δ).
    mean_offset: float
    #: Estimated bottleneck service rate μ, bits/s (None if no points).
    mu_estimate: Optional[float]
    #: x-intercept of the line, ``δ − P/μ`` (None if no points).
    x_intercept: Optional[float]


def diagonal_fraction(plot: PhasePlot, tolerance: float = 5e-3) -> float:
    """Fraction of phase points within ``tolerance`` of the diagonal.

    Large-δ experiments (Figure 4) put nearly all mass here.
    """
    if len(plot) == 0:
        raise InsufficientDataError("empty phase plot")
    return float(np.mean(np.abs(plot.y - plot.x) <= tolerance))


def fit_compression_line(plot: PhasePlot, mu_hint: float,
                         tolerance: float = 4e-3) -> CompressionLineFit:
    """Locate the compression line ``y = x + P/μ − δ`` and estimate μ.

    Parameters
    ----------
    plot:
        Phase points.
    mu_hint:
        Rough bottleneck rate used only to center the search window (the
        estimate itself comes from the located points).  An error of 2x in
        the hint is tolerated for any δ that keeps ``P/μ − δ`` away from 0.
    tolerance:
        Half-width (seconds) of the band around the candidate line.

    Notes
    -----
    Points with ``y − x`` within ``tolerance`` of ``P/μ_hint − δ`` are
    attributed to the line; their mean offset re-estimates ``P/μ`` and
    hence μ.  When δ is large, the line merges with the diagonal region and
    the estimate degrades — exactly as in the paper, where the δ = 500 ms
    plot shows only two points on the line.
    """
    if len(plot) == 0:
        raise InsufficientDataError("empty phase plot")
    if mu_hint <= 0:
        raise AnalysisError(f"mu_hint must be positive, got {mu_hint}")
    expected_offset = plot.wire_bits / mu_hint - plot.delta
    offsets = plot.y - plot.x
    on_line = np.abs(offsets - expected_offset) <= tolerance
    count = int(np.count_nonzero(on_line))
    if count == 0:
        return CompressionLineFit(point_count=0, fraction=0.0,
                                  mean_offset=float("nan"),
                                  mu_estimate=None, x_intercept=None)
    mean_offset = float(np.mean(offsets[on_line]))
    service_time = mean_offset + plot.delta  # = P/mu
    mu = plot.wire_bits / service_time if service_time > 0 else None
    intercept = -mean_offset if mean_offset < 0 else None
    return CompressionLineFit(point_count=count,
                              fraction=count / len(plot),
                              mean_offset=mean_offset, mu_estimate=mu,
                              x_intercept=intercept)


def estimate_bottleneck_mu(trace: ProbeTrace, mu_hint: float,
                           tolerance: float = 4e-3) -> Optional[float]:
    """One-call bottleneck estimator: phase plot + compression-line fit."""
    fit = fit_compression_line(phase_points(trace), mu_hint=mu_hint,
                               tolerance=tolerance)
    return fit.mu_estimate
