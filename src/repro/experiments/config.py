"""Experiment configuration shared by the figure/table reproductions.

The paper's experiments are 10-minute probe trains; full-length runs are
supported but the default durations are scaled down so the whole benchmark
suite completes in minutes.  Set the environment variable
``REPRO_FULL_EXPERIMENTS=1`` to run paper-length experiments everywhere.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.errors import ConfigurationError
from repro.topology.inria_umd import build_inria_umd
from repro.topology.umd_pitt import build_umd_pitt

#: The probe intervals of the paper's experiments, seconds.
PAPER_DELTAS = (0.008, 0.020, 0.050, 0.100, 0.200, 0.500)

#: Length of each experiment in the paper, seconds.
PAPER_DURATION = 600.0

#: Warm-up before probing starts, letting cross traffic reach steady state.
DEFAULT_WARMUP = 30.0

#: The topology builder of each scenario name: the ``scenario`` values
#: :class:`ExperimentConfig` accepts and the CLIs' ``--scenario`` choices.
SCENARIO_BUILDERS: Dict[str, Callable[..., Any]] = {
    "inria-umd": build_inria_umd,
    "umd-pitt": build_umd_pitt,
}

#: Execution modes: exact event simulation (the golden reference) and the
#: analytic fluid/aggregate fast-forward of the bottleneck queue.
EXECUTION_MODES = ("event", "analytic")


def full_experiments() -> bool:
    """True when paper-length runs were requested via the environment."""
    # Read upstream of the cell cache: the env only shapes ExperimentConfig
    # durations, and duration is hashed into every cell key — the
    # environment cannot silently poison a cached cell.
    return os.environ.get(
        "REPRO_FULL_EXPERIMENTS", "") not in ("", "0")  # repro: noqa[FLOW002]


def default_duration(requested: float = 120.0) -> float:
    """The experiment duration to use: paper length if requested via env."""
    return PAPER_DURATION if full_experiments() else requested


@dataclass
class ExperimentConfig:
    """Parameters of one probe experiment on a calibrated scenario.

    Attributes
    ----------
    delta:
        Probe interval, seconds.
    duration:
        Probe-train length, seconds (count = duration / delta).
    seed:
        Master random seed.
    warmup:
        Cross-traffic warm-up before the first probe, seconds.
    scenario:
        A key of :data:`SCENARIO_BUILDERS`: ``"inria-umd"`` or
        ``"umd-pitt"``.
    scenario_kwargs:
        Extra keyword arguments forwarded to the scenario's builder.  Each
        key must be a keyword the builder takes, other than ``seed``,
        which the ``seed`` field sets.
    mode:
        ``"event"`` runs the exact event-driven simulation (the golden
        reference); ``"analytic"`` fast-forwards the bottleneck queue
        analytically (see :mod:`repro.experiments.fastforward`), falling
        back to event execution when the scenario is not aggregatable.
    """

    delta: float
    duration: float = 120.0
    seed: int = 1
    warmup: float = DEFAULT_WARMUP
    scenario: str = "inria-umd"
    scenario_kwargs: dict = field(default_factory=dict)
    mode: str = "event"

    def __post_init__(self) -> None:
        for name in ("delta", "duration", "warmup"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite: {getattr(self, name)}")
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive: {self.delta}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive: {self.duration}")
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0: {self.warmup}")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer: {self.seed}")
        builder = SCENARIO_BUILDERS.get(self.scenario)
        if builder is None:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        accepted = inspect.signature(builder).parameters
        for key in sorted(self.scenario_kwargs):
            if key == "seed":
                raise ConfigurationError(
                    f"scenario {self.scenario!r}: scenario_kwargs may not "
                    f"set 'seed'; use the config's seed field")
            if key not in accepted:
                raise ConfigurationError(
                    f"scenario {self.scenario!r} takes no keyword {key!r}")
        if self.mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {self.mode!r}; "
                f"expected one of {EXECUTION_MODES}")

    @property
    def count(self) -> int:
        """Number of probes implied by duration and delta."""
        return max(1, int(round(self.duration / self.delta)))
