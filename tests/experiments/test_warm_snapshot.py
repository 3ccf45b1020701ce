"""Event runs probe a restored post-warm-up snapshot, bit for bit.

:func:`repro.experiments.runner.warm_scenario` hands every plain event
run a ``copy.deepcopy`` of a template simulated to the end of its
warm-up; :func:`~repro.experiments.runner.run_observed_experiment`
still simulates from t=0.  These tests pin the two to the same bits.
Warm-ups are short (2-5 s) to keep the module fast.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import runner
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import SCENARIO_BUILDERS, ExperimentConfig
from repro.experiments.runner import (
    collect_queue_stats,
    execute_experiment,
    run_observed_experiment,
    take_warm_template,
)
from repro.net.packet import next_packet_uid
from repro.netdyn.echo import ECHO_PORT
from repro.netdyn.source import FIRST_PROBE_LABEL, SourceAgent


def config_for(scenario="inria-umd", seed=9, delta=0.05, warmup=3.0,
               duration=4.0, **kwargs):
    return ExperimentConfig(delta=delta, duration=duration, seed=seed,
                            warmup=warmup, scenario=scenario,
                            scenario_kwargs=kwargs)


def assert_same_run(restored, trace, scenario):
    """A restored ExperimentResult equals a fresh run's trace/scenario."""
    assert np.array_equal(restored.trace.send_times, trace.send_times)
    assert np.array_equal(restored.trace.rtts, trace.rtts)
    assert restored.trace.delta == trace.delta
    assert restored.trace.meta == trace.meta
    assert restored.queue_stats == collect_queue_stats(scenario.network)
    assert restored.scenario.sim.events_executed \
        == scenario.sim.events_executed
    assert restored.scenario.sim.now == scenario.sim.now


@pytest.fixture
def no_template(monkeypatch):
    """Start without a held template, and drop whatever the test held."""
    monkeypatch.setattr(runner, "_held_template", None)


@pytest.fixture
def builds(monkeypatch):
    """Count scenario builds (one per template taken)."""
    made = []
    original = runner.build_scenario

    def counting(config):
        made.append(config)
        return original(config)

    monkeypatch.setattr(runner, "build_scenario", counting)
    return made


class TestBitIdentity:
    @pytest.mark.parametrize("config", [
        config_for(seed=9, delta=0.008),
        config_for(seed=9, delta=0.5, duration=5.0),
        config_for(seed=2, delta=0.05, warmup=5.0),
        config_for(seed=21, delta=0.02, warmup=2.0, fault_drop_prob=0.2),
        config_for("umd-pitt", seed=1, delta=0.05, warmup=2.0,
                   duration=2.0),
        config_for("umd-pitt", seed=3, delta=0.008, warmup=2.0,
                   duration=1.0),
    ], ids=["inria-8ms", "inria-500ms", "inria-seed2", "inria-faults",
            "pitt-50ms", "pitt-8ms"])
    def test_restored_run_matches_observed_run(self, no_template, config):
        restored = execute_experiment(config)
        restored_uid = next_packet_uid()
        trace, scenario, _ = run_observed_experiment(config)
        assert_same_run(restored, trace, scenario)
        assert restored_uid == next_packet_uid()

    def test_fault_drops_happen(self, no_template):
        config = config_for(seed=21, delta=0.02, warmup=2.0,
                            fault_drop_prob=0.2)
        result = execute_experiment(config)
        assert sum(fault.dropped for fault in result.scenario.faults) > 0


class TestOneTemplate:
    def test_runs_share_one_warm_up_and_no_state(self, no_template, builds):
        first = config_for(seed=2, delta=0.02)
        second = config_for(seed=2, delta=0.05)
        restored = [(execute_experiment(config), next_packet_uid())
                    for config in (first, second, first)]
        assert len(builds) == 1
        template = runner._held_template
        assert template is not None
        warm_events = template.scenario.sim.events_executed
        for (result, uid), config in zip(restored, (first, second, first)):
            trace, scenario, _ = run_observed_experiment(config)
            assert_same_run(result, trace, scenario)
            # Packet uids restart where the template left them.
            assert uid == next_packet_uid()
            assert result.scenario is not template.scenario
        # Probing the copies left the template at the end of its warm-up.
        assert template.scenario.sim.events_executed == warm_events
        assert template.scenario.sim.now < first.warmup

    def test_another_seed_or_warm_up_takes_a_new_template(self, no_template,
                                                          builds):
        execute_experiment(config_for(seed=2))
        execute_experiment(config_for(seed=3))
        execute_experiment(config_for(seed=3, warmup=2.0))
        execute_experiment(config_for(seed=3, warmup=2.0,
                                      fault_drop_prob=0.0))
        assert len(builds) == 4

    def test_kwargs_order_does_not_matter(self, no_template, builds):
        execute_experiment(config_for(utilization_fwd=0.5,
                                      utilization_rev=0.4))
        execute_experiment(config_for(utilization_rev=0.4,
                                      utilization_fwd=0.5))
        assert len(builds) == 1


class TestTemplateReuse:
    def test_event_campaign_warms_each_seed_once(self, no_template, builds):
        spec = CampaignSpec(deltas=[0.05, 0.02, 0.5], seeds=[4, 1],
                            duration=2.0)
        result = run_campaign(spec)
        assert [config.seed for config in builds] == [4, 1]
        for (delta, seed), trace in result.traces.items():
            fresh, _, _ = run_observed_experiment(ExperimentConfig(
                delta=delta, duration=2.0, seed=seed))
            assert np.array_equal(trace.rtts, fresh.rtts)

    def test_analytic_fallback_probes_the_snapshot(self, no_template,
                                                   builds):
        # This mix overflows the access queue, so the analytic engine
        # falls back to the event engine, on the template an event run
        # of the same seed then reuses.
        kwargs = {"window": 400, "mean_file_packets": 400.0}
        analytic = execute_experiment(ExperimentConfig(
            delta=0.05, duration=2.0, warmup=3.0, seed=1, mode="analytic",
            scenario_kwargs=kwargs))
        assert analytic.mode_used == "event"
        event = execute_experiment(config_for(seed=1, duration=2.0, **kwargs))
        assert len(builds) == 1
        assert np.array_equal(analytic.trace.rtts, event.trace.rtts)
        assert analytic.queue_stats == event.queue_stats


def heap_key(sim, action):
    """The (time, priority, sequence) key of ``action``'s pending event."""
    keys = [entry[:3] for entry in sim._heap if entry[3] is action]
    assert len(keys) == 1
    return keys[0]


class TestFirstProbeSlot:
    def test_reserved_key_is_the_fresh_key(self):
        config = config_for(seed=9, warmup=5.0)
        scenario = runner.build_scenario(config)
        scenario.start_traffic(at=0.0)
        agent = SourceAgent(scenario.network.host(scenario.source),
                            echo_host=scenario.echo, echo_port=ECHO_PORT,
                            delta=config.delta, count=config.count)
        agent.start(at=config.warmup)
        fresh = [entry[:3] for entry in scenario.sim._heap
                 if entry[4] == FIRST_PROBE_LABEL]
        template = take_warm_template(config)
        assert [heap_key(template.scenario.sim, template.first_probe)] \
            == fresh
        assert fresh[0][0] == config.warmup

    def test_slot_binds_once_at_its_own_time(self):
        template = take_warm_template(config_for(warmup=2.0))
        scenario, slot = template.scenario, template.first_probe
        agent = SourceAgent(scenario.network.host(scenario.source),
                            echo_host=scenario.echo, echo_port=ECHO_PORT,
                            delta=0.05, count=3)
        with pytest.raises(ConfigurationError, match="reserved at t=2.0"):
            agent.start(at=2.5, slot=slot)
        agent.start(at=2.0, slot=slot)
        with pytest.raises(SimulationError, match="already bound"):
            slot.bind(agent.close)


class TestClosureRefusal:
    def test_template_with_a_lambda_raises(self, no_template, monkeypatch):
        build = SCENARIO_BUILDERS["inria-umd"]

        def with_lambda(**kwargs):
            scenario = build(**kwargs)
            scenario.sim.call_at(1000.0, lambda: None, label="closure")
            return scenario

        monkeypatch.setitem(SCENARIO_BUILDERS, "inria-umd", with_lambda)
        with pytest.raises(SimulationError, match="closure"):
            execute_experiment(config_for(warmup=2.0))
        assert runner._held_template is None
        # Observed runs simulate from scratch and copy nothing.
        trace, _, _ = run_observed_experiment(config_for(warmup=2.0))
        assert len(trace) == 80
