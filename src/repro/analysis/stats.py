"""Statistical machinery for measurement campaigns.

The paper reports single-run numbers; a reproduction should quantify how
stable those numbers are.  This module provides Student-t intervals for
means and an aggregator that replicates an experiment across seeds and
reports per-metric spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError


@dataclass
class ConfidenceInterval:
    """A point estimate with a two-sided confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width, high − low."""
        return self.high - self.low

    def __str__(self) -> str:
        return (f"{self.estimate:.4g} "
                f"[{self.low:.4g}, {self.high:.4g}]@{self.confidence:.0%}")


def mean_interval(samples: Sequence[float],
                  confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for a mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 samples for an interval, got {arr.size}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    if sem == 0.0:
        return ConfidenceInterval(mean, mean, mean, confidence)
    from scipy.special import stdtrit  # scipy loads only when called

    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(estimate=mean, low=mean - t * sem,
                              high=mean + t * sem, confidence=confidence)


@dataclass
class ReplicationSummary:
    """Per-metric spread over replicated runs."""

    #: Metric name -> values across replications, in seed order.
    values: dict[str, list[float]]
    seeds: list[int]

    def interval(self, metric: str,
                 confidence: float = 0.95) -> ConfidenceInterval:
        """Mean confidence interval of one metric across replications."""
        if metric not in self.values:
            raise AnalysisError(f"unknown metric {metric!r}; have "
                                f"{sorted(self.values)}")
        return mean_interval(self.values[metric], confidence=confidence)

    def table(self) -> str:
        """Plain-text summary, one metric per line."""
        lines = []
        for metric in sorted(self.values):
            samples = np.asarray(self.values[metric])
            lines.append(f"{metric:24s} mean {samples.mean():10.4g}  "
                         f"sd {samples.std(ddof=1):9.4g}  "
                         f"min {samples.min():10.4g}  "
                         f"max {samples.max():10.4g}  "
                         f"n={samples.size}")
        return "\n".join(lines)


def replicate(metric_fn: Union[Callable[[int], dict[str, float]],
                               Mapping[int, dict[str, float]]],
              seeds: Sequence[int]) -> ReplicationSummary:
    """Collect per-seed metrics into a cross-seed summary.

    ``metric_fn`` is either a callable run as ``metric_fn(seed)`` for every
    seed, or a mapping ``seed -> metrics`` of precomputed values (the path
    parallel campaigns use: cells are executed elsewhere — possibly out of
    order, possibly in other processes — and only aggregated here).  Either
    way each seed contributes a flat dict of metric name -> value, and every
    replication must have the same keys.
    """
    if not seeds:
        raise AnalysisError("need at least one seed")
    if callable(metric_fn):
        fetch = metric_fn
    else:
        precomputed = dict(metric_fn)
        missing = [seed for seed in seeds if seed not in precomputed]
        if missing:
            raise AnalysisError(
                f"precomputed metrics missing seeds {missing}; have "
                f"{sorted(precomputed)}")
        fetch = precomputed.__getitem__
    values: dict[str, list[float]] = {}
    expected_keys = None
    for seed in seeds:
        metrics = fetch(seed)
        if expected_keys is None:
            expected_keys = set(metrics)
            for key in metrics:
                values[key] = []
        elif set(metrics) != expected_keys:
            raise AnalysisError(
                f"seed {seed} returned keys {sorted(metrics)}, expected "
                f"{sorted(expected_keys)}")
        for key, value in metrics.items():
            values[key].append(float(value))
    return ReplicationSummary(values=values, seeds=list(seeds))
