"""The governing invariant: observers never perturb the simulation.

Same seed ⇒ bit-identical ``ProbeTrace`` whether observability is off,
metrics-only, or fully on (kernel + lifecycle tracing).
"""

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, run_observed_experiment
from repro.netdyn.session import run_probe_experiment
from repro.obs import Observability
from repro.obs.tracer import KernelTracer
from repro.topology.inria_umd import build_inria_umd

CONFIG_KWARGS = dict(delta=0.05, duration=10.0, seed=7)


def bits(trace):
    """The trace's numeric payload, bit-exact."""
    return (trace.send_times.tobytes(), trace.rtts.tobytes())


class TestSameSeedEquality:
    def test_full_observability_is_bit_identical(self):
        bare = run_experiment(ExperimentConfig(**CONFIG_KWARGS))
        observed, _scenario, obs = run_observed_experiment(
            ExperimentConfig(**CONFIG_KWARGS), trace=True)
        assert bits(observed) == bits(bare)
        # The collectors really ran.
        assert len(obs.kernel) > 0
        assert len(obs.lifecycle.records) > 0

    def test_metrics_only_is_bit_identical(self):
        bare = run_experiment(ExperimentConfig(**CONFIG_KWARGS))
        observed, _scenario, obs = run_observed_experiment(
            ExperimentConfig(**CONFIG_KWARGS))
        assert bits(observed) == bits(bare)
        assert obs.kernel is None and obs.lifecycle is None
        assert len(obs.registry) > 0

    def test_observability_bundle_is_bit_identical(self):
        def run(observe):
            scenario = build_inria_umd(seed=3)
            obs = Observability.full(scenario.sim, scenario.network) \
                if observe else None
            scenario.start_traffic()
            trace = run_probe_experiment(scenario.network, scenario.source,
                                         scenario.echo, delta=0.05,
                                         count=100)
            if obs:
                obs.close(sim=scenario.sim)
            return trace

        assert bits(run(True)) == bits(run(False))


class TestKernelObserverNeutrality:
    def test_event_count_unchanged_by_tracing(self):
        def events(trace_on):
            scenario = build_inria_umd(seed=11)
            if trace_on:
                scenario.sim.attach_observer(KernelTracer())
            scenario.start_traffic()
            scenario.sim.run(until=5.0)
            return scenario.sim.events_executed, scenario.sim.now

        assert events(True) == events(False)

    def test_simulated_clock_identical_under_tracing(self):
        scenario_a = build_inria_umd(seed=2)
        scenario_b = build_inria_umd(seed=2)
        tracer = KernelTracer()
        scenario_b.sim.attach_observer(tracer)
        scenario_a.start_traffic()
        scenario_b.start_traffic()
        scenario_a.sim.run(until=3.0)
        scenario_b.sim.run(until=3.0)
        assert scenario_a.sim.now == scenario_b.sim.now
        assert scenario_a.sim.events_executed == \
            scenario_b.sim.events_executed
        # Every recorded simulated timestamp is within the run window.
        times = np.array([record.time for record in tracer.records])
        assert (times <= 3.0).all()
        assert (np.diff(times) >= 0).all()  # time-ordered
