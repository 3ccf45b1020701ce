"""Analysis of probe traces: everything Sections 4 and 5 compute.

* :mod:`~repro.analysis.phase` — phase plots, compression line, bottleneck
  bandwidth estimation (Figures 2, 4, 5, 6).
* :mod:`~repro.analysis.workload` — equation (6) workload estimation and
  peak classification (Figures 8, 9).
* :mod:`~repro.analysis.loss` — ulp/clp/plg and the runs test (Table 3).
* :mod:`~repro.analysis.lindley` — Lindley recurrence solvers (Figure 7).
* :mod:`~repro.analysis.timeseries` — summaries, ACF, spike clusters.
* :mod:`~repro.analysis.distributions` — constant+gamma fits [19].
* :mod:`~repro.analysis.stats` — confidence intervals and seed
  replication.
* :mod:`~repro.analysis.arma` — AR fitting and delay prediction (Section 3's
  parallel investigation).
* :mod:`~repro.analysis.compression` — probe compression episodes.
"""
