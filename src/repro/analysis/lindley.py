"""Lindley's recurrence for single-server FIFO waiting times.

Lindley's recurrence (Figure 7 of the paper) relates consecutive waiting
times in a single-server FIFO queue::

    w_{n+1} = (w_n + y_n - x_n)^+

where ``y_n`` is the service time of customer ``n`` and ``x_n`` the
inter-arrival time between customers ``n`` and ``n+1``.  Section 4 of the
paper applies it twice — probe, then cross-traffic batch — to derive the
workload estimator ``b_n = μ(w_{n+1} − w_n + δ) − P`` (equation 6), which
:attr:`repro.analysis.workload.WorkloadDistribution.batch_bits` computes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AnalysisError


def lindley_waits(service_times: Sequence[float],
                  interarrival_times: Sequence[float],
                  initial_wait: float = 0.0) -> np.ndarray:
    """Waiting times of successive customers via Lindley's recurrence.

    Evaluated in closed form rather than by the sequential loop: with
    ``d_n = y_n − x_n`` and prefix sums ``C_n = Σ_{k<n} d_k``, unrolling
    the recurrence gives::

        w_n = C_n + max(w_0, −min_{1≤k≤n} C_k)

    so one ``cumsum`` and one ``minimum.accumulate`` replace the Python
    loop (the analytic fast-forward queue leans on this for long batch
    spans; :func:`lindley_waits_loop` keeps the literal recurrence as the
    property-tested reference).

    Parameters
    ----------
    service_times:
        ``y_n`` for customers ``0 .. N-1``.
    interarrival_times:
        ``x_n`` (time between arrivals of customers ``n`` and ``n+1``);
        must have the same length (the last entry is unused for the final
        customer's wait but keeps call sites symmetrical).
    initial_wait:
        ``w_0``.

    Returns
    -------
    Array of ``N`` waiting times ``w_0 .. w_{N-1}``.
    """
    y = np.asarray(service_times, dtype=float)
    x = np.asarray(interarrival_times, dtype=float)
    if y.shape != x.shape:
        raise AnalysisError(
            f"service and interarrival lengths differ: {y.shape} vs {x.shape}")
    if np.any(y < 0) or np.any(x < 0):
        raise AnalysisError("negative service or interarrival time")
    if y.size == 0:
        return np.empty_like(y)
    prefix = np.cumsum(y[:-1] - x[:-1])
    waits = np.empty_like(y)
    waits[0] = initial_wait
    if y.size > 1:
        running_min = np.minimum.accumulate(prefix)
        waits[1:] = prefix + np.maximum(float(initial_wait), -running_min)
    return waits


def lindley_waits_loop(service_times: Sequence[float],
                       interarrival_times: Sequence[float],
                       initial_wait: float = 0.0) -> np.ndarray:
    """Reference implementation of :func:`lindley_waits` (literal loop)."""
    y = np.asarray(service_times, dtype=float)
    x = np.asarray(interarrival_times, dtype=float)
    if y.shape != x.shape:
        raise AnalysisError(
            f"service and interarrival lengths differ: {y.shape} vs {x.shape}")
    if np.any(y < 0) or np.any(x < 0):
        raise AnalysisError("negative service or interarrival time")
    waits = np.empty_like(y)
    if waits.size == 0:
        return waits
    w = float(initial_wait)
    waits[0] = w
    for n in range(len(y) - 1):
        w = max(0.0, w + y[n] - x[n])
        waits[n + 1] = w
    return waits

