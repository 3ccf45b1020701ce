"""Time-series statistics for delay traces.

Summary statistics, autocorrelation, moving averages, and a periodogram.
The spectral tools mirror the analysis of Mukherjee [19], whose spectral
decomposition of average delays exposed the diurnal congestion cycle; the
example scripts use the periodogram to recover the period of injected
periodic faults (the 90-second gateway 'debug' stalls of [22]).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class DelaySummary:
    """Five-number-plus summary of the received round-trip times."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p90: float
    p99: float
    maximum: float


def summarize(trace: ProbeTrace) -> DelaySummary:
    """Summary statistics of the received probes' rtts."""
    valid = trace.valid_rtts
    if valid.size == 0:
        raise InsufficientDataError("no received probes")
    return DelaySummary(
        count=int(valid.size),
        mean=float(valid.mean()),
        std=float(valid.std(ddof=1)) if valid.size > 1 else 0.0,
        minimum=float(valid.min()),
        median=float(np.median(valid)),
        p90=float(np.percentile(valid, 90)),
        p99=float(np.percentile(valid, 99)),
        maximum=float(valid.max()),
    )


def _contiguous_valid(trace: ProbeTrace) -> np.ndarray:
    """Received rtts with losses filled by linear interpolation.

    Spectral and autocorrelation estimates need an evenly spaced series;
    occasional losses are interpolated (and a trace that is mostly losses
    is rejected).
    """
    r = trace.rtts.copy()
    received = trace.received
    if received.sum() < max(2, 0.5 * len(r)):
        raise InsufficientDataError(
            "too many losses for an evenly-spaced series")
    indices = np.arange(len(r))
    r[~received] = np.interp(indices[~received], indices[received],
                             r[received])
    return r


#: Series length above which autocorrelation sums go through the FFT.
#: ``np.correlate`` is O(n·max_lag) with a tiny constant — unbeatable for
#: the short traces tests and examples use — while the zero-padded FFT is
#: O(n log n) regardless of lag count and wins on long campaigns.
_FFT_MIN_SIZE = 4096


def autocorrelation_sums(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """Raw lagged products ``Σ_t x_t x_{t+lag}`` for lags ``0 .. max_lag``.

    The shared vectorized core of the sample ACF (here) and the
    Yule–Walker autocovariances (:mod:`repro.analysis.arma`): callers
    normalize by their own denominator.  ``centered`` must already have
    its mean removed.  Small inputs use ``np.correlate``; long series
    switch to a zero-padded real FFT of ``|S|^2`` (circular correlation
    made linear by padding to at least ``2n``), identical up to float
    rounding (~1e-12 relative).
    """
    centered = np.ascontiguousarray(centered, dtype=float)
    n = len(centered)
    if not 0 <= max_lag < n:
        raise AnalysisError(
            f"need 0 <= max_lag < {n}, got {max_lag}")
    if n < _FFT_MIN_SIZE:
        # Full cross-correlation; lag-k sums sit at offsets n-1 .. n-1+k.
        return np.correlate(centered, centered,
                            mode="full")[n - 1:n + max_lag]
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(centered, n=size)
    return np.fft.irfft(np.abs(spectrum) ** 2, n=size)[:max_lag + 1]


def autocorrelation(trace: ProbeTrace, max_lag: int) -> np.ndarray:
    """Sample ACF of the rtt series at lags ``0 .. max_lag``."""
    if max_lag < 1:
        raise AnalysisError(f"max_lag must be >= 1, got {max_lag}")
    series = _contiguous_valid(trace)
    if len(series) <= max_lag:
        raise InsufficientDataError(
            f"series of {len(series)} too short for lag {max_lag}")
    centered = series - series.mean()
    denominator = float(np.dot(centered, centered))
    # Guard against an (effectively) constant series; the threshold is
    # relative so float rounding in the mean does not defeat it.
    scale = max(1.0, abs(float(series.mean())))
    if denominator <= len(series) * (1e-9 * scale) ** 2:
        raise InsufficientDataError("constant series has undefined ACF")
    return autocorrelation_sums(centered, max_lag) / denominator


def moving_average(trace: ProbeTrace, window: int) -> np.ndarray:
    """Centered moving average of the (interpolated) rtt series."""
    if window < 1:
        raise AnalysisError(f"window must be >= 1, got {window}")
    series = _contiguous_valid(trace)
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="valid")


@dataclass
class Periodogram:
    """One-sided periodogram of the rtt series."""

    #: Frequencies in Hz (excludes DC).
    frequencies: np.ndarray
    #: Power at each frequency.
    power: np.ndarray

    def dominant_period(self) -> float:
        """Period (seconds) of the strongest spectral component."""
        if self.power.size == 0:
            raise InsufficientDataError("empty periodogram")
        peak = int(np.argmax(self.power))
        return 1.0 / float(self.frequencies[peak])


def periodogram(trace: ProbeTrace) -> Periodogram:
    """Periodogram of the mean-removed rtt series sampled every δ seconds."""
    series = _contiguous_valid(trace)
    series = series - series.mean()
    spectrum = np.abs(np.fft.rfft(series)) ** 2 / len(series)
    freqs = np.fft.rfftfreq(len(series), d=trace.delta)
    return Periodogram(frequencies=freqs[1:], power=spectrum[1:])


def spike_clusters(trace: ProbeTrace, threshold: float,
                   guard: float = 5.0) -> np.ndarray:
    """Start times of clusters of extreme rtts (rtt > threshold).

    Consecutive spikes closer than ``guard`` seconds belong to one cluster.
    This is the outlier-first debugging workflow of [22]: a stalled gateway
    produces rtts far beyond anything congestion can, so thresholding above
    the congestion ceiling isolates the fault events.
    """
    if guard <= 0:
        raise AnalysisError(f"guard must be positive, got {guard}")
    times = trace.send_times[trace.rtts > threshold]
    if times.size == 0:
        return np.empty(0)
    # Chain spikes off the *most recent* spike, not the cluster start: a
    # fault lasting longer than ``guard`` is still one cluster as long as
    # no inter-spike gap exceeds the guard interval.
    starts = [times[0]]
    last = times[0]
    for t in times[1:]:
        if t - last > guard:
            starts.append(t)
        last = t
    return np.asarray(starts)


def periodic_spike_period(trace: ProbeTrace, threshold: float,
                          guard: float = 5.0) -> float:
    """Median spacing of spike clusters: the period of a recurring fault.

    Detects the 90-second gateway 'debug option' signature of [22].
    """
    starts = spike_clusters(trace, threshold, guard=guard)
    if starts.size < 2:
        raise InsufficientDataError(
            f"found {starts.size} spike cluster(s); need >= 2")
    return float(np.median(np.diff(starts)))


def delay_change_rate(trace: ProbeTrace, threshold: float) -> float:
    """Fraction of consecutive received pairs whose rtt jumps > threshold.

    A cheap instability metric: the 'rapid fluctuations of queueing delays
    over small intervals' the paper reports show up as a high change rate
    at small δ.
    """
    r = trace.rtts
    both = trace.received[:-1] & trace.received[1:]
    if not np.any(both):
        raise InsufficientDataError("no consecutive received pairs")
    jumps = np.abs(np.diff(r))[both]
    return float(np.mean(jumps > threshold))
