"""Measure campaign dispatch + scaling; ``benchmarks/BENCH_campaign.json``.

Run it with ``repro-bench run campaign [--quick] [--output-dir DIR]``.

Two measurements, written in the shared ``repro-bench`` report schema
(:mod:`repro.obs.bench`):

* **Dispatch overhead**: the same analytic-mode grid served in-process
  (``workers=1``) and by the warm worker pool (persistent salt-verified
  workers, batched leases, streaming merge).  Analytic cells cost
  milliseconds, so the wall-time difference *is* what the pool adds —
  worker start-up, pipe round trips, pickling — and it is recorded as
  measured (``dispatch_overhead_warm_seconds`` in ``details``).
* **Worker scaling**: the fixed event-mode (δ × seed) grid timed
  serially and with 2 and 4 warm workers.  Cells are independent
  simulations, so on an unloaded machine with >= 4 CPUs the 4-worker
  run should beat serial by well over 1.5×; the test module asserts that
  wherever the hardware can express it.  A worker count above the host's
  CPU count cannot show a speedup, so it is not timed and its entry is
  marked ``"unmeasured"``.

Wall times are best-of-``REPEATS`` minima — the low-noise statistic for
short runs — and the cache salt is computed *before* any timing so the
one-off source hash never lands in a measured window.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.experiments.cache import cache_salt
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.obs.bench import LOWER_IS_BETTER, build_report, metric

SUITE = "campaign"

#: The fixed scaling grid: 2 deltas x 4 seeds = 8 cells, sized so each
#: cell costs enough wall time that pool start-up cost is noise.
BENCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3, 4),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
)

#: The dispatch-overhead grid: analytic cells cost milliseconds, so the
#: campaign wall time is almost entirely executor overhead — which is
#: the quantity under test.
DISPATCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3, 4),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
    mode="analytic",
)

WORKER_COUNTS = (1, 2, 4)

#: Workers for the warm-pool side of the dispatch-overhead comparison.
DISPATCH_WORKERS = 2

#: Best-of-N repeats per timed configuration.  The minimum is the
#: stable statistic for sub-second runs.
REPEATS = 3

#: Scaling entry of a worker count the host has too few CPUs to express.
UNMEASURED = "unmeasured"


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def time_campaign(workers: int, grid: dict = BENCH_GRID) -> float:
    """Wall seconds for one full run of a benchmark grid."""
    spec = CampaignSpec(**grid)
    started = perf_counter()
    run_campaign(spec, workers=workers)
    return perf_counter() - started


def best_of(repeats: int, workers: int, grid: dict) -> float:
    """Minimum wall seconds over ``repeats`` runs of the grid."""
    return min(time_campaign(workers, grid=grid)
               for _ in range(max(1, repeats)))


def collect_dispatch(quick: bool = False) -> dict:
    """In-process vs warm-pool lease serving on the analytic grid."""
    grid = dict(DISPATCH_GRID)
    if quick:
        grid["seeds"] = DISPATCH_GRID["seeds"][:2]
    spec = CampaignSpec(**grid)
    cells = len(grid["deltas"]) * len(grid["seeds"])

    serial = best_of(REPEATS, 1, grid)
    warm = best_of(REPEATS, DISPATCH_WORKERS, grid)

    # One more warm run for the lease accounting (its wall time is not
    # used).
    result = run_campaign(spec, workers=DISPATCH_WORKERS)
    dispatch = result.dispatch_stats or {}

    return {
        "grid_cells": cells,
        "mode": "analytic",
        "workers": DISPATCH_WORKERS,
        "serial_seconds": serial,
        "warm_seconds": warm,
        # What the pool adds to the in-process run, as measured: near
        # scheduler-jitter level, and negative when the second CPU wins.
        "dispatch_overhead_warm_seconds": warm - serial,
        "leases": dispatch.get("leases", 0),
        "lease_batch_size": dispatch.get("batch_size", 0),
    }


def collect_scaling(quick: bool = False) -> dict:
    """Run the event-mode grid at every worker count; derive speedups."""
    grid = dict(BENCH_GRID, duration=5.0) if quick else BENCH_GRID
    if quick:
        grid["seeds"] = BENCH_GRID["seeds"][:2]
    cells = len(grid["deltas"]) * len(grid["seeds"])
    document = {
        "grid_cells": cells,
        "cell_duration_seconds": grid["duration"],
        "cpus": available_cpus(),
        "wall_seconds": {},
        "speedup_vs_serial": {},
    }
    for workers in WORKER_COUNTS:
        key = str(workers)
        if workers > document["cpus"]:
            document["wall_seconds"][key] = UNMEASURED
            document["speedup_vs_serial"][key] = UNMEASURED
            continue
        document["wall_seconds"][key] = time_campaign(workers, grid=grid)
        document["speedup_vs_serial"][key] = \
            document["wall_seconds"]["1"] / document["wall_seconds"][key]
    return document


def collect(quick: bool = False) -> dict:
    """Both measurements, merged into one details document."""
    # The cache salt is memoized process state; compute it before any
    # timed window so the one-off source hash cannot be booked against
    # the first executor measured.
    cache_salt()
    document = collect_scaling(quick=quick)
    document["dispatch"] = collect_dispatch(quick=quick)
    return document


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    dispatch = details["dispatch"]
    speedups = details["speedup_vs_serial"]
    metrics = {
        f"speedup_{workers}_workers": metric(speedups[str(workers)], "x")
        for workers in WORKER_COUNTS
        if workers > 1 and speedups[str(workers)] != UNMEASURED
    }
    metrics["serial_seconds"] = metric(details["wall_seconds"]["1"], "s",
                                       direction=LOWER_IS_BETTER)
    metrics["warm_seconds"] = metric(dispatch["warm_seconds"], "s",
                                     direction=LOWER_IS_BETTER)
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)
