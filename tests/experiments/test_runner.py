"""Tests for the experiment runner."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_scenario,
    execute_experiment,
    run_experiment,
)
from repro.topology.inria_umd import SOURCE_HOST as INRIA_SOURCE
from repro.topology.umd_pitt import SOURCE_HOST as UMD_SOURCE


class TestBuildScenario:
    def test_inria_umd(self):
        scenario = build_scenario(ExperimentConfig(delta=0.05))
        assert scenario.source == INRIA_SOURCE == "tom.inria.fr"

    def test_umd_pitt(self):
        scenario = build_scenario(ExperimentConfig(delta=0.05,
                                                   scenario="umd-pitt"))
        assert scenario.source == UMD_SOURCE == "lena.cs.umd.edu"

    def test_scenario_kwargs_forwarded(self):
        config = ExperimentConfig(delta=0.05,
                                  scenario_kwargs={"utilization_fwd": 0.0,
                                                   "utilization_rev": 0.0,
                                                   "fault_drop_prob": 0.0})
        scenario = build_scenario(config)
        assert scenario.mix_fwd is None
        assert scenario.faults == []


class TestRunExperiment:
    def test_trace_shape(self):
        config = ExperimentConfig(delta=0.05, duration=10.0, seed=3,
                                  warmup=5.0)
        trace = run_experiment(config)
        assert len(trace) == config.count
        assert trace.meta["scenario"] == "inria-umd"
        assert trace.meta["seed"] == 3
        assert trace.meta["mu_bps"] == pytest.approx(128e3)

    def test_warmup_shifts_send_times(self):
        config = ExperimentConfig(delta=0.05, duration=5.0, warmup=20.0)
        trace = run_experiment(config)
        assert trace.send_times[0] >= 20.0

    def test_with_scenario_exposes_queues(self):
        config = ExperimentConfig(delta=0.05, duration=20.0, warmup=5.0)
        result = execute_experiment(config)
        scenario = result.scenario
        assert scenario.bottleneck_fwd.queue.arrivals > 0
        assert len(result.trace) == config.count
        assert result.mode_used == "event"
        assert result.fallback_reasons == []
        label = scenario.bottleneck_fwd.name
        assert result.queue_stats[label]["arrivals"] == \
            scenario.bottleneck_fwd.queue.arrivals

    def test_reproducibility(self):
        config = ExperimentConfig(delta=0.05, duration=15.0, seed=7)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.rtts.tolist() == second.rtts.tolist()
