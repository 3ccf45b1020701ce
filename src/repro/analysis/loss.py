"""Loss-process analysis (Section 5, Table 3).

The paper characterizes probe loss by the unconditional loss probability
``ulp = P(rtt_n = 0)``, the conditional probability
``clp = P(rtt_{n+1} = 0 | rtt_n = 0)``, and the packet loss gap
``plg = 1 / (1 − clp)`` (the mean number of consecutive losses, assuming
stationarity and ergodicity — a Palm-calculus identity).  Beyond those we
provide a Wald–Wolfowitz runs test for randomness of the loss sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class LossStats:
    """The paper's loss metrics for one trace."""

    #: Unconditional loss probability P(rtt_n = 0).
    ulp: float
    #: Conditional loss probability P(rtt_{n+1} = 0 | rtt_n = 0).
    clp: float
    #: Packet loss gap 1 / (1 - clp).
    plg: float
    #: Number of probes.
    count: int
    #: Number of lost probes.
    losses: int


def loss_stats(trace: ProbeTrace) -> LossStats:
    """Compute ulp, clp, and plg for a trace."""
    lost = trace.lost
    n = len(lost)
    if n < 2:
        raise InsufficientDataError("need at least two probes")
    losses = int(lost.sum())
    ulp = losses / n
    predecessors = int(lost[:-1].sum())
    if predecessors == 0:
        clp = 0.0
    else:
        clp = float((lost[:-1] & lost[1:]).sum() / predecessors)
    plg = math.inf if clp >= 1.0 else 1.0 / (1.0 - clp)
    return LossStats(ulp=ulp, clp=clp, plg=plg, count=n, losses=losses)


@dataclass
class RunsTestResult:
    """Wald–Wolfowitz runs test on the loss indicator sequence."""

    #: Observed number of runs (alternations of loss / success blocks).
    runs: int
    #: Expected runs under independence.
    expected: float
    #: Normal test statistic.
    z: float
    #: Two-sided p-value.
    p_value: float

    def looks_random(self, alpha: float = 0.01) -> bool:
        """True if independence cannot be rejected at level ``alpha``."""
        return self.p_value >= alpha


def runs_test(trace: ProbeTrace) -> RunsTestResult:
    """Test whether losses occur independently (the paper's 'essentially
    random' claim for low probe rates)."""
    lost = trace.lost.astype(int)
    n1 = int(lost.sum())
    n0 = len(lost) - n1
    if n1 == 0 or n0 == 0:
        raise InsufficientDataError("runs test needs both losses and successes")
    runs = 1 + int(np.count_nonzero(np.diff(lost)))
    n = n0 + n1
    expected = 1.0 + 2.0 * n0 * n1 / n
    variance = (2.0 * n0 * n1 * (2.0 * n0 * n1 - n)) / (n * n * (n - 1.0))
    if variance <= 0:
        raise InsufficientDataError("degenerate runs-test variance")
    z = (runs - expected) / math.sqrt(variance)
    from scipy.special import ndtr  # scipy loads only when called

    # ndtr(-|z|) is the upper tail sf(|z|): it keeps precision in the far
    # tail where 1 - cdf(|z|) rounds to exactly 0.0 (|z| >~ 8), which would
    # turn a strong rejection into an apparent p = 0.
    p_value = 2.0 * ndtr(-abs(z))
    return RunsTestResult(runs=runs, expected=expected, z=z,
                          p_value=float(p_value))
