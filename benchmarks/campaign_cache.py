"""Measure cold-vs-warm campaign latency; ``benchmarks/BENCH_cache.json``.

Run it with ``repro-bench run cache [--quick] [--output-dir DIR]``.

Runs the fixed benchmark grid twice against the same cell cache: a cold
pass (empty cache, every cell simulated and stored) and a warm pass (every
cell loaded from disk).  Records both wall times, the speedup, the warm
pass's hit accounting, and whether the two passes' artifacts — summary
tables, per-cell trace CSVs, ``manifest.json`` — came out byte-identical
(the cold==warm invariant), in the shared ``repro-bench`` report schema
(:mod:`repro.obs.bench`).  ``benchmarks/test_perf_cache.py`` asserts the
>= 10x warm speedup and the byte-identity.
"""

from __future__ import annotations

import filecmp
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.obs.bench import build_report, metric

SUITE = "cache"

#: The fixed benchmark grid: 2 deltas x 3 seeds = 6 cells, sized so the
#: cold pass costs seconds of simulation while the warm pass is pure I/O.
BENCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
)

#: Required warm-over-cold speedup (asserted by test_perf_cache.py).
SPEEDUP_FLOOR = 10.0


def _run_pass(cache: CampaignCache, output_dir: Path,
              grid: dict = BENCH_GRID) -> "tuple[float, dict]":
    """One full campaign into ``output_dir``; (wall seconds, cache stats)."""
    spec = CampaignSpec(output_dir=output_dir, **grid)
    started = perf_counter()
    result = run_campaign(spec, cache=cache)
    assert result.cache_stats is not None
    return perf_counter() - started, result.cache_stats


def _artifacts_identical(cold_dir: Path, warm_dir: Path) -> bool:
    """True when every deterministic artifact matches byte-for-byte.

    ``timing.json`` is excluded by design: it records execution mechanics
    (wall clocks, hit/miss accounting) and legitimately differs.
    """
    names = sorted(p.name for p in cold_dir.iterdir()
                   if p.name != "timing.json")
    if names != sorted(p.name for p in warm_dir.iterdir()
                       if p.name != "timing.json"):
        return False
    match, mismatch, errors = filecmp.cmpfiles(cold_dir, warm_dir, names,
                                               shallow=False)
    return not mismatch and not errors


def collect(quick: bool = False) -> dict:
    """Run the grid cold then warm against one cache; derive the speedup."""
    grid = dict(BENCH_GRID, duration=5.0) if quick else BENCH_GRID
    workdir = Path(tempfile.mkdtemp(prefix="bench-cache-"))
    try:
        cache = CampaignCache(workdir / "cache")
        cold_seconds, cold_stats = _run_pass(cache, workdir / "cold",
                                             grid=grid)
        warm_seconds, warm_stats = _run_pass(cache, workdir / "warm",
                                             grid=grid)
        identical = _artifacts_identical(workdir / "cold", workdir / "warm")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cells = len(grid["deltas"]) * len(grid["seeds"])
    return {
        "grid_cells": cells,
        "cell_duration_seconds": grid["duration"],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_misses": cold_stats["misses"],
        "warm_hits": warm_stats["hits"],
        "warm_misses": warm_stats["misses"],
        "cache_bytes_written": cold_stats["bytes_written"],
        "cache_bytes_read": warm_stats["bytes_read"],
        "artifacts_identical": identical,
    }


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    metrics = {
        "warm_speedup": metric(details["speedup"], "x"),
        "warm_seconds": metric(details["warm_seconds"], "s",
                               direction="lower"),
    }
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)
