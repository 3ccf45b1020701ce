"""M/D/1 and M/D/1/K reference formulas.

Closed-form and numeric results for the simplest relatives of the paper's
bottleneck queue.  They serve as oracles for the network substrate: a
simulated link fed Poisson fixed-size traffic must reproduce the
Pollaczek–Khinchine mean wait and the M/D/1/K blocking probability.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def md1_mean_wait(arrival_rate: float, service_time: float) -> float:
    """Mean queueing delay (excluding service) of an M/D/1 queue.

    Pollaczek–Khinchine for deterministic service:
    ``Wq = ρ y / (2 (1 − ρ))`` with ``ρ = λ y``.
    """
    rho = arrival_rate * service_time
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(
            f"utilization must be in [0, 1) for a stable queue, got {rho}")
    return rho * service_time / (2.0 * (1.0 - rho))


def _poisson_pmf(mean: float, count: int) -> np.ndarray:
    """P(N = 0..count) for N ~ Poisson(mean)."""
    pmf = np.empty(count + 1)
    pmf[0] = math.exp(-mean)
    for j in range(1, count + 1):
        pmf[j] = pmf[j - 1] * mean / j
    return pmf


def mdk1_blocking_probability(arrival_rate: float, service_time: float,
                              buffer_size: int) -> float:
    """Blocking (loss) probability of an M/D/1/K queue.

    ``buffer_size`` is K, the maximum number of customers in the *system*
    (including the one in service).  Uses the embedded Markov chain at
    departure instants (states 0..K-1) and the standard M/G/1/K
    normalization: ``p_j = π_j / (π_0 + ρ)`` for j < K and
    ``p_K = 1 − Σ_{j<K} p_j``; by PASTA the blocking probability is
    ``p_K``.
    """
    if buffer_size < 1:
        raise ConfigurationError(f"buffer size must be >= 1, got {buffer_size}")
    rho = arrival_rate * service_time
    if rho <= 0:
        return 0.0
    k = buffer_size
    a = _poisson_pmf(rho, k)  # arrivals during one (deterministic) service

    # Embedded chain on queue length just after a departure: states 0..K-1.
    transition = np.zeros((k, k))
    for j in range(k - 1):
        transition[0, j] = a[j]
    transition[0, k - 1] = 1.0 - transition[0, :k - 1].sum()
    for i in range(1, k):
        for j in range(i - 1, k - 1):
            transition[i, j] = a[j - i + 1]
        transition[i, k - 1] = 1.0 - transition[i, :k - 1].sum()

    # Stationary distribution of the embedded chain.
    eye = np.eye(k)
    system = np.vstack([(transition.T - eye)[:-1], np.ones(k)])
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()

    # Time-stationary probabilities via the M/G/1/K relation.
    normalizer = pi[0] + rho
    p = pi / normalizer
    p_block = 1.0 - p.sum()
    return float(min(max(p_block, 0.0), 1.0))

