"""Tests for loss-process analysis (Table 3 metrics, runs test)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.loss import loss_stats, runs_test
from repro.errors import InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def trace_from_losses(pattern):
    """0 = received (rtt 0.1), 1 = lost."""
    return ProbeTrace.from_samples(
        delta=0.05, rtts=[0.0 if bit else 0.1 for bit in pattern])


def gilbert_losses(p, q, n, rng):
    """Loss indicators of a 2-state Markov chain.

    The good state delivers and the bad state drops; ``p`` is the
    good->bad and ``q`` the bad->good transition probability.
    """
    out = np.zeros(n, dtype=int)
    bad = rng.random() < p / (p + q)
    for i in range(n):
        out[i] = 1 if bad else 0
        bad = rng.random() >= q if bad else rng.random() < p
    return out


def is_bursty(stats, margin=0.05):
    """True if losses are positively correlated (clp > ulp + margin)."""
    return stats.clp > stats.ulp + margin


class TestLossStats:
    def test_ulp(self):
        stats = loss_stats(trace_from_losses([0, 1, 0, 1]))
        assert stats.ulp == pytest.approx(0.5)
        assert stats.losses == 2
        assert stats.count == 4

    def test_clp_counts_consecutive_losses(self):
        # Losses at 1,2 and 4: one loss->loss transition out of three
        # loss-predecessors (positions 1, 2, 4 is last so excluded? no:
        # predecessors are positions 0..n-2 that are lost: 1, 2).
        stats = loss_stats(trace_from_losses([0, 1, 1, 0, 1]))
        assert stats.clp == pytest.approx(0.5)

    def test_plg_from_clp(self):
        stats = loss_stats(trace_from_losses([0, 1, 1, 0, 1]))
        assert stats.plg == pytest.approx(1.0 / (1.0 - 0.5))

    def test_no_losses(self):
        stats = loss_stats(trace_from_losses([0, 0, 0]))
        assert stats.ulp == 0.0
        assert stats.clp == 0.0
        assert stats.plg == 1.0

    def test_all_lost(self):
        stats = loss_stats(trace_from_losses([1, 1, 1]))
        assert stats.ulp == 1.0
        assert stats.clp == 1.0
        assert math.isinf(stats.plg)

    def test_burstiness_flag(self):
        # Losses come in pairs: ulp = 0.25 but clp = 0.5.
        bursty = loss_stats(trace_from_losses([1, 1, 0, 0, 0, 0, 0, 0] * 10))
        assert is_bursty(bursty)
        # Isolated losses: clp = 0 < ulp.
        random = loss_stats(trace_from_losses([1, 0, 0, 0] * 10))
        assert not is_bursty(random)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            loss_stats(trace_from_losses([1]))

    def test_clp_estimates_chain_persistence(self, rng):
        # On a Markov loss chain, clp estimates P(loss | loss) = 1 - q.
        pattern = gilbert_losses(0.08, 0.6, 50_000, rng)
        stats = loss_stats(trace_from_losses(pattern.tolist()))
        assert stats.clp == pytest.approx(0.4, abs=0.02)


class TestRunsTest:
    def test_independent_losses_pass(self, rng):
        pattern = (rng.random(5000) < 0.1).astype(int)
        result = runs_test(trace_from_losses(pattern.tolist()))
        assert result.looks_random(alpha=0.001)

    def test_bursty_losses_fail(self, rng):
        pattern = gilbert_losses(0.05, 0.2, 5000, rng)  # strongly bursty
        result = runs_test(trace_from_losses(pattern.tolist()))
        assert not result.looks_random(alpha=0.001)
        assert result.z < 0  # fewer runs than expected under independence

    def test_requires_both_outcomes(self):
        with pytest.raises(InsufficientDataError):
            runs_test(trace_from_losses([0, 0, 0]))
        with pytest.raises(InsufficientDataError):
            runs_test(trace_from_losses([1, 1, 1]))

    def test_extreme_z_p_value_does_not_underflow(self):
        # Regression: 2*(1 - cdf(|z|)) rounds to exactly 0.0 for |z| >~ 8.
        # A perfectly alternating sequence of n probes has z ~ sqrt(n), so
        # n = 120 pushes |z| past 10 where only the sf() form survives.
        pattern = [0, 1] * 60
        result = runs_test(trace_from_losses(pattern))
        assert abs(result.z) > 8
        assert 0.0 < result.p_value < 1e-12
        assert result.p_value == pytest.approx(
            2.0 * math.erfc(abs(result.z) / math.sqrt(2.0)) / 2.0, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(pattern=st.lists(st.integers(0, 1), min_size=2, max_size=200))
def test_loss_stats_invariants(pattern):
    """ulp, clp in [0,1]; plg >= 1; counts consistent."""
    trace = trace_from_losses(pattern)
    stats = loss_stats(trace)
    assert 0.0 <= stats.ulp <= 1.0
    assert 0.0 <= stats.clp <= 1.0
    assert stats.plg >= 1.0
    assert stats.losses == sum(pattern)


class TestOnRealSimulation:
    def test_loaded_path_loss_in_paper_range(self, loaded_trace):
        stats = loss_stats(loaded_trace)
        assert 0.03 <= stats.ulp <= 0.25
        assert stats.clp >= stats.ulp  # positive correlation at delta=50ms
