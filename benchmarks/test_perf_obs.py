"""Observability overhead benchmarks.

The governing performance requirement of :mod:`repro.obs`: with no observer
attached, the kernel hot path pays one ``is None`` branch per event and
nothing else, so tracing-off throughput must stay within a few percent of
the pre-observability kernel.  These benchmarks track both sides — the
untraced path (the regression guard) and the fully traced path (the cost of
turning everything on).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, run_observed_experiment
from repro.obs.tracer import KernelTracer
from repro.sim.kernel import Simulator

EVENT_COUNT = 100_000


def run_chain(tracer=None):
    """The bare-kernel 100k-event chain (test_perf_substrate's workload)."""
    sim = Simulator(seed=0)
    if tracer is not None:
        sim.attach_observer(tracer)

    def chain(remaining):
        if remaining:
            sim.schedule(0.001, lambda: chain(remaining - 1))

    sim.call_at(0.0, lambda: chain(EVENT_COUNT))
    sim.run()
    return sim.events_executed


def test_perf_kernel_tracing_off(benchmark):
    """Untraced kernel throughput — the ≤5% overhead budget lives here."""
    events = benchmark(run_chain)
    assert events == EVENT_COUNT + 1


def test_perf_kernel_tracing_on(benchmark):
    """Fully traced kernel throughput (ring buffer + profiles)."""

    def traced():
        return run_chain(tracer=KernelTracer())

    events = benchmark(traced)
    assert events == EVENT_COUNT + 1


def test_perf_experiment_observed_vs_bare(benchmark):
    """Full experiment with every collector on (kernel + lifecycle)."""

    def observed():
        trace, _scenario, obs = run_observed_experiment(
            ExperimentConfig(delta=0.05, duration=30.0, seed=0),
            trace=True)
        return len(trace), obs.kernel.events_seen

    probes, events = benchmark.pedantic(observed, rounds=3, iterations=1)
    assert probes == 600
    assert events > 0


def test_perf_experiment_metrics_only(benchmark):
    """Pull-based registry only: should be indistinguishable from bare."""

    def metrics_only():
        trace, _scenario, _obs = run_observed_experiment(
            ExperimentConfig(delta=0.05, duration=30.0, seed=0))
        return len(trace)

    probes = benchmark.pedantic(metrics_only, rounds=3, iterations=1)
    assert probes == 600


def test_perf_experiment_bare_reference(benchmark):
    """Reference: the unobserved experiment the others compare against."""

    def bare():
        return len(run_experiment(
            ExperimentConfig(delta=0.05, duration=30.0, seed=0)))

    probes = benchmark.pedantic(bare, rounds=3, iterations=1)
    assert probes == 600
