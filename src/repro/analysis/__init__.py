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

from repro.analysis.arma import (
    ARModel,
    PredictionReport,
    evaluate_prediction,
    fit_ar,
    select_order,
)
from repro.analysis.compression import (
    CompressionEpisode,
    CompressionReport,
    detect_compression,
)
from repro.analysis.distributions import (
    ConstantPlusGammaFit,
    fit_constant_plus_gamma,
)
from repro.analysis.lindley import lindley_waits, lindley_waits_loop
from repro.analysis.loss import LossStats, RunsTestResult, loss_stats, runs_test
from repro.analysis.phase import (
    CompressionLineFit,
    PhasePlot,
    diagonal_fraction,
    estimate_bottleneck_mu,
    fit_compression_line,
    phase_points,
)
from repro.analysis.stats import (
    ConfidenceInterval,
    ReplicationSummary,
    mean_interval,
    replicate,
)
from repro.analysis.timeseries import (
    DelaySummary,
    autocorrelation,
    periodic_spike_period,
    spike_clusters,
    summarize,
)
from repro.analysis.workload import (
    Peak,
    WorkloadDistribution,
    classify_peaks,
    find_peaks,
    probe_gap_samples,
    workload_distribution,
)

__all__ = [
    "ARModel", "PredictionReport", "evaluate_prediction", "fit_ar",
    "select_order",
    "CompressionEpisode", "CompressionReport", "detect_compression",
    "ConstantPlusGammaFit", "fit_constant_plus_gamma",
    "lindley_waits", "lindley_waits_loop",
    "LossStats", "RunsTestResult", "loss_stats", "runs_test",
    "CompressionLineFit", "PhasePlot", "diagonal_fraction",
    "estimate_bottleneck_mu", "fit_compression_line", "phase_points",
    "ConfidenceInterval", "ReplicationSummary", "mean_interval",
    "replicate",
    "DelaySummary", "autocorrelation", "periodic_spike_period",
    "spike_clusters", "summarize",
    "Peak", "WorkloadDistribution", "classify_peaks", "find_peaks",
    "probe_gap_samples", "workload_distribution",
]
