"""Unit and property tests for Lindley's recurrence (Figure 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lindley import lindley_waits, lindley_waits_loop
from repro.errors import AnalysisError


class TestLindleyWaits:
    def test_underloaded_queue_stays_empty(self):
        # Service 1, arrivals every 2: no one ever waits.
        waits = lindley_waits([1.0] * 5, [2.0] * 5)
        assert waits.tolist() == [0.0] * 5

    def test_overloaded_queue_grows_linearly(self):
        # Service 2, arrivals every 1: wait grows by 1 per customer.
        waits = lindley_waits([2.0] * 5, [1.0] * 5)
        assert waits.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_alternating_load(self):
        waits = lindley_waits([3.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert waits.tolist() == [0.0, 1.0, 0.0]

    def test_initial_wait(self):
        waits = lindley_waits([1.0, 1.0], [2.0, 2.0], initial_wait=5.0)
        assert waits[0] == 5.0
        assert waits[1] == pytest.approx(4.0)

    def test_empty_input(self):
        assert len(lindley_waits([], [])) == 0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            lindley_waits([1.0], [1.0, 2.0])
        with pytest.raises(AnalysisError):
            lindley_waits([-1.0], [1.0])


@settings(max_examples=120, deadline=None)
@given(services=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60),
       gaps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60))
def test_lindley_invariants(services, gaps):
    """Waits are nonnegative and satisfy the recurrence exactly."""
    n = min(len(services), len(gaps))
    y, x = services[:n], gaps[:n]
    waits = lindley_waits(y, x)
    assert np.all(waits >= 0.0)
    for i in range(n - 1):
        expected = max(0.0, waits[i] + y[i] - x[i])
        assert waits[i + 1] == pytest.approx(expected)


@settings(max_examples=80, deadline=None)
@given(services=st.lists(st.floats(0.0, 10.0), min_size=0, max_size=80),
       gaps=st.lists(st.floats(0.0, 10.0), min_size=0, max_size=80),
       initial=st.floats(0.0, 5.0))
def test_vectorized_matches_reference_loop(services, gaps, initial):
    """The closed-form cumsum evaluation equals the literal recurrence."""
    n = min(len(services), len(gaps))
    y, x = services[:n], gaps[:n]
    fast = lindley_waits(y, x, initial_wait=initial)
    slow = lindley_waits_loop(y, x, initial_wait=initial)
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(services=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
def test_lindley_monotone_in_service(services):
    """Inflating every service time cannot reduce any wait."""
    gaps = [0.5] * len(services)
    base = lindley_waits(services, gaps)
    inflated = lindley_waits([s + 0.1 for s in services], gaps)
    assert np.all(inflated >= base - 1e-12)
