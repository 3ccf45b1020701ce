"""Queueing models: the paper's analytic side.

:mod:`~repro.queueing.batchmodel` implements the D + batch-D / D / 1 / K
model of Section 6; :mod:`~repro.queueing.mdk1` provides M/D/1(/K) oracles
used to validate the network substrate; :mod:`~repro.queueing.closure`
fits the batch model to a measured run; :mod:`~repro.queueing.fastforward`
is the drop-tail bottleneck queue behind the analytic execution mode
(:func:`~repro.queueing.fastforward.bottleneck_pass`, with
:func:`~repro.queueing.fastforward.drop_tail_walk` and
:func:`~repro.queueing.fastforward.fifo_waits`).
"""
