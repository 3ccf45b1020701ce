"""Queueing models: the paper's analytic side.

:mod:`~repro.queueing.batchmodel` implements the D + batch-D / D / 1 / K
model of Section 6; :mod:`~repro.queueing.mdk1` provides M/D/1(/K) oracles
used to validate the network substrate; :mod:`~repro.queueing.closure`
fits the batch model to a measured run; :mod:`~repro.queueing.fastforward`
is the drop-tail bottleneck queue behind the analytic execution mode
(:func:`bottleneck_pass`, with :func:`drop_tail_walk` and
:func:`fifo_waits`).
"""

from repro.queueing.fastforward import (
    bottleneck_pass,
    drop_tail_walk,
    fifo_waits,
)

from repro.queueing.batchmodel import (
    BatchArrivalQueue,
    BatchModelResult,
    geometric_packet_batches,
)
from repro.queueing.closure import (
    ClosureReport,
    EmpiricalBatchDistribution,
    closed_loop_comparison,
    fit_batch_distribution,
)
from repro.queueing.mdk1 import (
    md1_mean_wait,
    mdk1_blocking_probability,
)

__all__ = [
    "bottleneck_pass",
    "drop_tail_walk",
    "fifo_waits",
    "BatchArrivalQueue",
    "BatchModelResult",
    "geometric_packet_batches",
    "md1_mean_wait",
    "mdk1_blocking_probability",
    "ClosureReport",
    "EmpiricalBatchDistribution",
    "closed_loop_comparison",
    "fit_batch_distribution",
]
