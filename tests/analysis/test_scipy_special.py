"""The ``scipy.special`` calls in the analysis equal the ``scipy.stats`` ones.

:func:`~repro.analysis.stats.mean_interval` and
:func:`~repro.analysis.loss.runs_test` call ``stdtrit`` and ``ndtr``
directly, so importing the package never loads ``scipy.stats``.
The tables they feed must not change by one bit, so each call is compared
with the ``scipy.stats`` expression it replaces as float ``==`` over the
arguments the code passes: confidences 0.5-0.999 and the runs-test z.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, stdtrit

#: Confidences the intervals take: the usual levels and a grid over
#: [0.5, 0.999].
CONFIDENCES = sorted({0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999,
                      *np.linspace(0.5, 0.999, 25).tolist()})
#: Degrees of freedom: every replication count up to 200, then large ones.
DFS = [*range(1, 200), 500, 1000, 100000]

confidences = st.floats(0.5, 0.999)


def quantile_level(confidence):
    """The two-sided quantile level the interval code evaluates."""
    return 0.5 + confidence / 2.0


def assert_t_ppf_equal(df, confidence):
    q = quantile_level(confidence)
    assert float(stdtrit(df, q)) == float(stats.t.ppf(q, df=df)), (
        df, confidence)


def assert_two_sided_p_equal(z):
    assert (float(2.0 * ndtr(-abs(z)))
            == float(2.0 * stats.norm.sf(abs(z)))), z


class TestStudentQuantile:
    def test_grid(self):
        for df in DFS:
            for confidence in CONFIDENCES:
                assert_t_ppf_equal(df, confidence)

    @given(st.sampled_from(DFS), confidences)
    def test_generated(self, df, confidence):
        assert_t_ppf_equal(df, confidence)


class TestTwoSidedNormalTail:
    def test_grid_into_the_far_tail(self):
        # Past |z| ~ 38 the tail underflows to 0.0 in both forms.
        for z in np.linspace(0.0, 40.0, 4001):
            assert_two_sided_p_equal(float(z))
            assert_two_sided_p_equal(-float(z))

    @given(st.floats(-40.0, 40.0))
    def test_generated(self, z):
        assert_two_sided_p_equal(z)
