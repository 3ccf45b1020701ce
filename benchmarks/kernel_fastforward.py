"""Measure analytic-vs-event speedup; ``benchmarks/BENCH_fastforward.json``.

Run it with ``repro-bench run fastforward [--quick] [--output-dir DIR]``.

Runs one calibrated cell (INRIA-UMd, delta=0.05) twice: once through the
event kernel (``run_experiment``) and once through the analytic
fast-forward engine (``run_fastforward_experiment``), which replays the
same RNG draws through vectorized Lindley recursions and a fluid
bottleneck instead of simulating every packet event.  Records both wall
times, the speedup, and the equivalence of the two traces — which must
be *bit-identical*: same loss mask, zero RTT gap — in the shared
``repro-bench`` report schema (:mod:`repro.obs.bench`).
``benchmarks/test_perf_fastforward.py`` asserts the >= 10x speedup floor
and the equivalence; a report whose traces diverged benchmarked a bug,
not a fast path.

A second section, ``batched_vs_percell``, benchmarks grid-batched
analytic execution: a multi-δ × multi-seed campaign grid run the way a
campaign runs its cells — :func:`execute_experiment` with one shared
:class:`CrossReplayMemo` and the grid's maximum ``replay_horizon``, so
each seed's cross traffic is replayed once and reused across every δ —
against the same cells run independently (every cell rebuilding its
replay).  The grid's
scenario carries a deep bottleneck buffer so every cell satisfies the
no-drop certificate and stays on the vectorized path; the section
asserts the batched results are byte-identical to the per-cell ones and
records the ``batched_speedup`` (floor: 3x committed, 2x in
``test_perf_fastforward.py``).

``--quick`` shrinks the simulated duration (CI smoke); quick numbers are
only comparable to other quick runs, and the report says which mode ran.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.fastforward import (
    CrossReplayMemo,
    cell_horizon,
    run_fastforward_experiment,
)
from repro.experiments.runner import execute_experiment, run_experiment
from repro.netdyn.trace import LOST
from repro.obs.bench import LOWER_IS_BETTER, build_report, metric

SUITE = "fastforward"

#: The calibrated cell: long enough that the event kernel executes
#: millions of events while the analytic engine stays vectorized.
BENCH_CELL = dict(delta=0.05, seed=3, scenario="inria-umd")
FULL_DURATION = 120.0
QUICK_DURATION = 20.0

#: Analytic passes are cheap; take the best of several.  The event pass
#: dominates the budget and runs once.
ANALYTIC_ROUNDS = 3

#: Required analytic-over-event speedup (asserted by
#: test_perf_fastforward.py and the CI compare gate).
SPEEDUP_FLOOR = 10.0

#: The batched grid: the paper's probe intervals × two seeds.  The deep
#: buffer keeps every cell — even δ=8 ms, whose probe-inclusive
#: occupancy peaks near 5k packets — inside the no-drop certificate, so
#: both modes run fully vectorized and the comparison isolates the
#: replay-reuse win rather than certificate fallbacks.
GRID_DELTAS = (0.008, 0.02, 0.05, 0.1, 0.2, 0.5)
GRID_SEEDS = (1, 2)
GRID_KWARGS = {"buffer_packets": 8192}
GRID_ROUNDS = 3

#: Required grid-batched-over-per-cell speedup on the committed (full)
#: benchmark; test_perf_fastforward.py enforces a 2x noise-tolerant
#: floor, CI's quick smoke a 1.5x one.
BATCHED_SPEEDUP_FLOOR = 3.0


def _config(duration: float, mode: str) -> ExperimentConfig:
    return ExperimentConfig(duration=duration, mode=mode, **BENCH_CELL)


def _equivalence(event_trace, analytic_trace) -> dict:
    """Trace agreement facts: loss masks and RTT gap in clock ticks."""
    event_lost = event_trace.rtts == LOST
    analytic_lost = analytic_trace.rtts == LOST
    losses_identical = bool(np.array_equal(event_lost, analytic_lost))
    received = ~event_lost & ~analytic_lost
    if received.any():
        gap = float(np.abs(event_trace.rtts[received]
                           - analytic_trace.rtts[received]).max())
    else:
        gap = 0.0
    resolution = float(analytic_trace.meta["clock_resolution"])
    return {
        "losses_identical": losses_identical,
        "max_rtt_gap_seconds": gap,
        "max_rtt_gap_ticks": gap / resolution if resolution else 0.0,
        "clock_resolution": resolution,
        "probes": len(event_trace),
    }


def _grid_configs(duration: float) -> list:
    return [ExperimentConfig(delta=delta, duration=duration, seed=seed,
                             scenario="inria-umd",
                             scenario_kwargs=dict(GRID_KWARGS),
                             mode="analytic")
            for seed in GRID_SEEDS for delta in GRID_DELTAS]


def _run_batched(configs: list) -> list:
    """The grid through the campaign's per-cell call (seed-major order).

    One fresh memo per pass, so every pass pays each seed's replay build
    once; every cell asks for the grid's maximum horizon, as
    ``campaign._run_cell`` does.
    """
    memo = CrossReplayMemo()
    horizon = max(cell_horizon(config) for config in configs)
    return [execute_experiment(config, memo=memo, replay_horizon=horizon)
            for config in configs]


def collect_batched(quick: bool = False) -> dict:
    """Time the grid per-cell vs batched; assert byte-identity."""
    duration = QUICK_DURATION if quick else FULL_DURATION
    configs = _grid_configs(duration)

    # Warm the one-time process costs both modes share — the cache salt
    # (replay keying) and the engine's import closure — so
    # the timed region measures execution, not first-call setup.
    from repro.experiments.cache import cache_salt
    cache_salt()
    run_fastforward_experiment(configs[0])

    percell_seconds = batched_seconds = float("inf")
    percell = batched = None
    for _ in range(GRID_ROUNDS):
        started = perf_counter()
        percell = [run_fastforward_experiment(config)
                   for config in configs]
        percell_seconds = min(percell_seconds, perf_counter() - started)
        started = perf_counter()
        batched = _run_batched(configs)
        batched_seconds = min(batched_seconds, perf_counter() - started)

    for one, many in zip(percell, batched):
        assert one.mode_used == many.mode_used == "analytic", (
            one.fallback_reasons, many.fallback_reasons)
        assert np.array_equal(one.trace.rtts, many.trace.rtts,
                              equal_nan=True)
        assert np.array_equal(one.trace.send_times, many.trace.send_times)
        assert one.queue_stats == many.queue_stats

    return {
        "grid": {"deltas": list(GRID_DELTAS), "seeds": list(GRID_SEEDS),
                 "duration": duration, "scenario": "inria-umd",
                 "scenario_kwargs": dict(GRID_KWARGS),
                 "cells": len(configs)},
        "rounds": GRID_ROUNDS,
        "percell_seconds": percell_seconds,
        "batched_seconds": batched_seconds,
        "batched_speedup": percell_seconds / batched_seconds,
        "byte_identical": True,
    }


def collect(quick: bool = False) -> dict:
    """Time the cell through both kernels; derive speedup + equivalence."""
    duration = QUICK_DURATION if quick else FULL_DURATION

    started = perf_counter()
    event_trace = run_experiment(_config(duration, "event"))
    event_seconds = perf_counter() - started

    analytic_seconds = float("inf")
    analytic_trace = None
    for _ in range(ANALYTIC_ROUNDS):
        started = perf_counter()
        result = run_fastforward_experiment(_config(duration, "analytic"))
        analytic_seconds = min(analytic_seconds, perf_counter() - started)
        analytic_trace = result.trace
        assert result.mode_used == "analytic", result.fallback_reasons

    return {
        "cell": dict(BENCH_CELL, duration=duration),
        "analytic_rounds": ANALYTIC_ROUNDS,
        "event_seconds": event_seconds,
        "analytic_seconds": analytic_seconds,
        "speedup": event_seconds / analytic_seconds,
        "equivalence": _equivalence(event_trace, analytic_trace),
        "batched_vs_percell": collect_batched(quick=quick),
    }


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    batched = details["batched_vs_percell"]
    metrics = {
        "event_seconds": metric(details["event_seconds"], "s",
                                direction=LOWER_IS_BETTER),
        "analytic_seconds": metric(details["analytic_seconds"], "s",
                                   direction=LOWER_IS_BETTER),
        "analytic_speedup": metric(details["speedup"], "x"),
        "percell_grid_seconds": metric(batched["percell_seconds"], "s",
                                       direction=LOWER_IS_BETTER),
        "batched_grid_seconds": metric(batched["batched_seconds"], "s",
                                       direction=LOWER_IS_BETTER),
        "batched_speedup": metric(batched["batched_speedup"], "x"),
    }
    return build_report(SUITE, metrics,
                        mode="quick" if quick else "full", details=details)
