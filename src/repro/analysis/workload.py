"""Cross-traffic workload estimation via equation (6) (Figures 8 and 9).

The quantity ``w_{n+1} − w_n + δ`` — equivalently, the inter-arrival time of
returning probes — equals ``(b_n + P)/μ`` whenever the bottleneck stays
busy between consecutive probes.  Its histogram therefore reads out the
distribution of the cross-traffic workload ``b_n``, with peaks at:

* ``P/μ``: compressed probes (zero cross traffic between them);
* ``δ``: an unchanged queue (``w_{n+1} = w_n``);
* ``δ + i·S/μ``: ``i`` cross packets of size ``S`` arrived in between.

Peak positions recover the sizes of the packets the probes share the
bottleneck with — the paper finds one and two ~500-byte FTP packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace
from repro.units import bits_to_bytes, bytes_to_bits


@dataclass
class WorkloadDistribution:
    """Histogram of ``w_{n+1} − w_n + δ`` and the derived quantities."""

    #: Samples of ``w_{n+1} - w_n + δ`` in seconds.
    samples: np.ndarray
    #: Histogram counts and bin edges (seconds).
    counts: np.ndarray
    edges: np.ndarray
    delta: float
    mu: float
    probe_bits: float

    def batch_bits(self) -> np.ndarray:
        """Equation (6): cross-traffic bits between probes, clipped at 0."""
        return np.maximum(0.0, self.mu * self.samples - self.probe_bits)


@dataclass
class Peak:
    """One local maximum of the workload histogram."""

    #: Location (bin center), seconds.
    location: float
    #: Bin count at the peak.
    height: int
    #: Cross-traffic bytes implied by eq. (6) at this location.
    implied_bytes: float


def probe_gap_samples(trace: ProbeTrace) -> np.ndarray:
    """``w_{n+1} − w_n + δ`` for consecutive received probes.

    Computed as ``rtt_{n+1} − rtt_n + δ`` — identical since the fixed delay
    D cancels.  This is also the spacing of probes returning to the source.
    """
    r = trace.rtts
    both = trace.received[:-1] & trace.received[1:]
    if not np.any(both):
        raise InsufficientDataError(
            "no pair of consecutive probes was received")
    return (r[1:] - r[:-1] + trace.delta)[both]


def workload_distribution(trace: ProbeTrace, mu: float,
                          bin_width: float = 2e-3,
                          ) -> WorkloadDistribution:
    """Histogram the workload samples of a trace.

    Parameters
    ----------
    mu:
        Bottleneck service rate in bits/s (measured or estimated via
        :func:`repro.analysis.phase.estimate_bottleneck_mu`).
    bin_width:
        Histogram bin width in seconds (2 ms default, comparable to the
        paper's figures).

    The histogram spans ``[0, 4 δ]``.
    """
    if mu <= 0:
        raise AnalysisError(f"mu must be positive, got {mu}")
    if bin_width <= 0:
        raise AnalysisError(f"bin width must be positive, got {bin_width}")
    samples = probe_gap_samples(trace)
    edges = np.arange(0.0, 4 * trace.delta + bin_width, bin_width)
    counts, edges = np.histogram(samples, bins=edges)
    return WorkloadDistribution(samples=samples, counts=counts, edges=edges,
                                delta=trace.delta, mu=mu,
                                probe_bits=bytes_to_bits(trace.wire_bytes))


def find_peaks(dist: WorkloadDistribution, min_height_fraction: float = 0.02,
               ) -> list[Peak]:
    """Local maxima of the histogram, tallest first.

    A bin is a peak if it exceeds both neighbors and holds at least
    ``min_height_fraction`` of all samples.  Adjacent-equal plateaus count
    once (leftmost bin).
    """
    counts = dist.counts
    if counts.size < 3:
        raise InsufficientDataError("histogram too short for peak finding")
    total = counts.sum()
    if total == 0:
        raise InsufficientDataError("empty histogram")
    centers = (dist.edges[:-1] + dist.edges[1:]) / 2.0
    peaks = []
    for i in range(1, len(counts) - 1):
        if counts[i] > counts[i - 1] and counts[i] >= counts[i + 1] \
                and counts[i] >= min_height_fraction * total:
            implied_bits = max(0.0, dist.mu * centers[i] - dist.probe_bits)
            peaks.append(Peak(location=float(centers[i]),
                              height=int(counts[i]),
                              implied_bytes=bits_to_bytes(implied_bits)))
    peaks.sort(key=lambda p: p.height, reverse=True)
    return peaks


def classify_peaks(peaks: list[Peak], delta: float, mu: float,
                   probe_bits: float, tolerance: float = 3e-3,
                   ) -> dict[str, Optional[Peak]]:
    """Attribute peaks to the paper's three mechanisms.

    Returns a dict with keys ``compression`` (near ``P/μ``), ``idle``
    (near ``δ``), and ``one_packet``: the first *workload* peak, i.e. the
    smallest-location peak that is neither the compression peak nor the
    idle peak.  By equation (6) the workload peaks sit at
    ``(i·S + P)/μ`` for cross packets of size ``S`` — independent of δ —
    so this peak directly reveals the cross-traffic packet size.
    """
    service = probe_bits / mu
    result: dict[str, Optional[Peak]] = {
        "compression": None, "idle": None, "one_packet": None}
    for peak in peaks:
        if abs(peak.location - service) <= tolerance \
                and result["compression"] is None:
            result["compression"] = peak
        elif abs(peak.location - delta) <= tolerance \
                and result["idle"] is None:
            result["idle"] = peak
    workload_peaks = [
        peak for peak in peaks
        if peak is not result["compression"] and peak is not result["idle"]
        and peak.location > service + tolerance]
    if workload_peaks:
        result["one_packet"] = min(workload_peaks,
                                   key=lambda p: p.location)
    return result
