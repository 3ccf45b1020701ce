"""Calibrated experiments: one function per table/figure of the paper."""

from repro.experiments.cache import (
    CampaignCache,
    cache_salt,
    cell_fingerprint,
)
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    run_campaign,
)
from repro.experiments.config import (
    DEFAULT_WARMUP,
    ExperimentConfig,
    PAPER_DELTAS,
    PAPER_DURATION,
    default_duration,
    full_experiments,
)
from repro.experiments.figures import (
    ALL_FIGURES,
    ComparisonRow,
    FigureResult,
    PAPER_TABLE3,
    figure1,
    figure2,
    figure4,
    figure5,
    figure6,
    figure8,
    figure9,
    table1,
    table2,
    table3,
)
from repro.experiments.report import as_markdown, as_text, run_all
from repro.experiments.runner import (
    ExperimentResult,
    build_scenario,
    collect_queue_stats,
    execute_experiment,
    run_experiment,
    run_observed_experiment,
)

__all__ = [
    "CampaignCache",
    "cache_salt",
    "CampaignSpec",
    "CampaignResult",
    "cell_fingerprint",
    "run_campaign",
    "ExperimentConfig",
    "PAPER_DELTAS",
    "PAPER_DURATION",
    "DEFAULT_WARMUP",
    "default_duration",
    "full_experiments",
    "ALL_FIGURES",
    "ComparisonRow",
    "FigureResult",
    "PAPER_TABLE3",
    "figure1",
    "figure2",
    "figure4",
    "figure5",
    "figure6",
    "figure8",
    "figure9",
    "table1",
    "table2",
    "table3",
    "as_markdown",
    "as_text",
    "run_all",
    "ExperimentResult",
    "build_scenario",
    "collect_queue_stats",
    "execute_experiment",
    "run_experiment",
    "run_observed_experiment",
]
