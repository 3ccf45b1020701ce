"""Tests for experiment configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    ExperimentConfig,
    PAPER_DELTAS,
    PAPER_DURATION,
    default_duration,
    full_experiments,
)
from repro.experiments.runner import build_scenario


class TestExperimentConfig:
    def test_count_from_duration(self):
        config = ExperimentConfig(delta=0.05, duration=10.0)
        assert config.count == 200

    def test_count_at_least_one(self):
        config = ExperimentConfig(delta=10.0, duration=1.0)
        assert config.count == 1

    def test_paper_constants(self):
        assert PAPER_DELTAS == (0.008, 0.020, 0.050, 0.100, 0.200, 0.500)
        assert PAPER_DURATION == 600.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(delta=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(delta=0.05, duration=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(delta=0.05, warmup=-1.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(delta=0.05, scenario="mars-net")

    @pytest.mark.parametrize("field", ["delta", "duration", "warmup"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        kwargs = {"delta": 0.05, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be "
                                                     "finite"):
            ExperimentConfig(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(delta=0.05, seed=-1)
        assert ExperimentConfig(delta=0.05, seed=0).seed == 0

    def test_scenario_kwargs_default_empty(self):
        assert ExperimentConfig(delta=0.05).scenario_kwargs == {}

    @pytest.mark.parametrize("scenario, key", [
        ("inria-umd", "bufer_packets"),
        ("inria-umd", "buffer_bytes"),  # an umd-pitt keyword
        ("umd-pitt", "buffer_packets"),  # an inria-umd keyword
        ("inria-umd", "seed"),
        ("umd-pitt", "seed"),
        ("inria-umd", "sim"),
    ])
    def test_scenario_kwargs_must_be_builder_keywords(self, scenario, key):
        # Caught when the config is built, not inside the first cell.
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(delta=0.05, scenario=scenario,
                             scenario_kwargs={key: 10})
        assert repr(key) in str(exc.value)
        assert repr(scenario) in str(exc.value)

    def test_builder_keywords_accepted(self):
        config = ExperimentConfig(delta=0.05, scenario="umd-pitt",
                                  scenario_kwargs={"buffer_bytes": 10_000,
                                                   "quantized_clock": False})
        assert build_scenario(config).bottleneck_fwd.queue.capacity == 10_000

    def test_mode_defaults_to_event(self):
        assert ExperimentConfig(delta=0.05).mode == "event"

    def test_mode_accepts_analytic(self):
        assert ExperimentConfig(delta=0.05, mode="analytic").mode == \
            "analytic"

    def test_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(delta=0.05, mode="quantum")


class TestEnvironmentSwitch:
    def test_default_duration_scaled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_EXPERIMENTS", raising=False)
        assert not full_experiments()
        assert default_duration(120.0) == 120.0

    def test_full_experiments_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_EXPERIMENTS", "1")
        assert full_experiments()
        assert default_duration(120.0) == PAPER_DURATION

    def test_zero_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_EXPERIMENTS", "0")
        assert not full_experiments()
