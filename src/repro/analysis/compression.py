"""Probe-compression episode detection.

Probe compression (the paper's name for the clustering of probes behind a
large cross-traffic packet, analogous to ACK compression [29, 18]) leaves a
signature in the trace: runs of consecutive probes whose rtt difference is
``P/μ − δ``, i.e. probes that left the bottleneck back-to-back, ``P/μ``
apart.  This module extracts those episodes and summarizes their
statistics, which the Figure 8/9 discussion relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace
from repro.units import bytes_to_bits


@dataclass
class CompressionEpisode:
    """One run of compressed probes."""

    #: Index of the first compressed pair's earlier probe.
    start: int
    #: Number of consecutive compressed *pairs* (episode has length+1 probes).
    length: int


@dataclass
class CompressionReport:
    """Summary of probe compression in a trace."""

    episodes: list[CompressionEpisode]
    #: Fraction of consecutive received pairs that were compressed.
    pair_fraction: float
    #: Mean number of probes per episode (>= 2).
    mean_episode_probes: float


def detect_compression(trace: ProbeTrace, mu: float,
                       tolerance: float = 4e-3) -> CompressionReport:
    """Find compression episodes given the bottleneck rate ``mu``.

    A consecutive received pair (n, n+1) is *compressed* when
    ``rtt_{n+1} − rtt_n`` is within ``tolerance`` of ``P/μ − δ``.
    """
    if mu <= 0:
        raise AnalysisError(f"mu must be positive, got {mu}")
    r = trace.rtts
    received_pair = trace.received[:-1] & trace.received[1:]
    if not np.any(received_pair):
        raise InsufficientDataError("no consecutive received pairs")
    expected = bytes_to_bits(trace.wire_bytes) / mu - trace.delta
    compressed = received_pair & (
        np.abs((r[1:] - r[:-1]) - expected) <= tolerance)

    episodes: list[CompressionEpisode] = []
    start = None
    for i, flag in enumerate(compressed):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            episodes.append(CompressionEpisode(start=start,
                                               length=i - start))
            start = None
    if start is not None:
        episodes.append(CompressionEpisode(start=start,
                                           length=len(compressed) - start))

    pair_fraction = float(compressed.sum() / received_pair.sum())
    if episodes:
        mean_probes = float(np.mean([e.length + 1 for e in episodes]))
    else:
        mean_probes = 0.0
    return CompressionReport(episodes=episodes, pair_fraction=pair_fraction,
                             mean_episode_probes=mean_probes)
