"""Measure kernel event throughput; ``benchmarks/BENCH_obs.json``.

Run it with ``repro-bench run obs [--quick] [--output-dir DIR]``.

Times the bare-kernel 100k-event chain three ways — no observer, kernel
tracing attached, and the full observed experiment — and records
events/sec for each in the shared ``repro-bench`` report schema
(:mod:`repro.obs.bench`), so tracing-off regressions show up as a drop in
``untraced_events_per_second`` between commits.
"""

from __future__ import annotations

from time import perf_counter

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_observed_experiment
from repro.obs.bench import build_report, metric
from repro.obs.tracer import KernelTracer
from repro.sim.kernel import Simulator

SUITE = "obs"

EVENT_COUNT = 100_000
ROUNDS = 3


def run_chain(tracer=None) -> int:
    sim = Simulator(seed=0)
    if tracer is not None:
        sim.attach_observer(tracer)

    def chain(remaining):
        if remaining:
            sim.schedule(0.001, lambda: chain(remaining - 1))

    sim.call_at(0.0, lambda: chain(EVENT_COUNT))
    sim.run()
    return sim.events_executed


def best_rate(make_tracer) -> float:
    """Best-of-ROUNDS events/sec for the 100k chain."""
    best = 0.0
    for _ in range(ROUNDS):
        started = perf_counter()
        events = run_chain(tracer=make_tracer())
        rate = events / (perf_counter() - started)
        best = max(best, rate)
    return best


def collect(quick: bool = False) -> dict:
    """Chain with/without tracing plus one fully observed experiment."""
    untraced = best_rate(lambda: None)
    traced = best_rate(lambda: KernelTracer())

    started = perf_counter()
    trace, _scenario, obs = run_observed_experiment(
        ExperimentConfig(delta=0.05, duration=10.0 if quick else 30.0,
                         seed=0),
        trace=True)
    elapsed = perf_counter() - started

    return {
        "workload_events": EVENT_COUNT + 1,
        "rounds": ROUNDS,
        "events_per_second_untraced": round(untraced),
        "events_per_second_traced": round(traced),
        "tracing_overhead_fraction": round(1.0 - traced / untraced, 4),
        "observed_experiment": {
            "probes": len(trace),
            "kernel_events": obs.kernel.events_seen,
            "hop_records": len(obs.lifecycle.records),
            "events_per_second": round(obs.kernel.events_seen / elapsed),
        },
    }


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    metrics = {
        "untraced_events_per_second":
            metric(details["events_per_second_untraced"], "events/s"),
        "traced_events_per_second":
            metric(details["events_per_second_traced"], "events/s"),
        "tracing_overhead_fraction":
            metric(details["tracing_overhead_fraction"], "fraction",
                   direction="lower"),
    }
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)
