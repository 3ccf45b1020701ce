"""Packet-size distributions for traffic sources.

The paper's measurements resolve the Internet stream into bulk transfers
with large packets (one peak per 512-byte FTP packet in Figures 8/9) and
interactive traffic with small packets.  These distributions generate that
mix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.kernel import restore_attributes

#: Classic FTP/NFS bulk data payload of the early-90s Internet.
FTP_PAYLOAD_BYTES = 512

#: Typical interactive (Telnet) payloads: a keystroke to a line of output.
TELNET_PAYLOAD_CHOICES = (1, 2, 4, 8, 16, 32, 64)


class SizeDistribution:
    """Interface: draw one payload size in bytes."""

    __setstate__ = restore_attributes

    def sample(self, rng: np.random.Generator) -> int:
        """Return one payload size."""
        raise NotImplementedError

    def mean(self) -> float:
        """Expected payload size in bytes."""
        raise NotImplementedError


class FixedSize(SizeDistribution):
    """Every packet has the same payload size."""

    def __init__(self, payload_bytes: int) -> None:
        if payload_bytes <= 0:
            raise ConfigurationError(
                f"payload size must be positive, got {payload_bytes}")
        self.payload_bytes = payload_bytes

    def sample(self, rng: np.random.Generator) -> int:
        return self.payload_bytes

    def mean(self) -> float:
        return float(self.payload_bytes)


class EmpiricalSize(SizeDistribution):
    """Draws from a finite set of sizes with given probabilities."""

    def __init__(self, sizes: Sequence[int],
                 weights: Sequence[float]) -> None:
        if len(sizes) != len(weights) or not sizes:
            raise ConfigurationError("sizes and weights must match, nonempty")
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ConfigurationError(
                f"weights must be finite and non-negative, got {weights}")
        total = float(sum(weights))
        if total <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        self.sizes = np.asarray(sizes, dtype=int)
        self.probabilities = np.asarray(weights, dtype=float) / total
        # Generator.choice(sizes, p=probabilities) draws one uniform u and
        # returns sizes[searchsorted(cumsum(p) / cumsum(p)[-1], u,
        # side="right")]; sample() repeats that arithmetic with bisect_right
        # over Python lists, so it returns the same size from the same
        # single draw without numpy's per-call dispatch.
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._choices = [int(size) for size in self.sizes]

    def sample(self, rng: np.random.Generator) -> int:
        return self._choices[bisect_right(self._cdf, rng.random())]

    def mean(self) -> float:
        return float(np.dot(self.sizes, self.probabilities))


def telnet_sizes() -> EmpiricalSize:
    """Interactive packet sizes, skewed toward single keystrokes."""
    weights = [0.35, 0.15, 0.12, 0.12, 0.1, 0.08, 0.08]
    return EmpiricalSize(TELNET_PAYLOAD_CHOICES, weights)

