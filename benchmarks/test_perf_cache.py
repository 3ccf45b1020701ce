"""Campaign cell-cache benchmarks.

The governing requirement of the cache (DESIGN.md): a cache hit is
byte-identical to a cold run — the cache is an optimization, never an
input — and a warm full-grid re-run is at least an order of magnitude
faster than the cold one.  ``repro-bench run cache`` records the numbers in
``BENCH_cache.json``; this module re-runs the suite in memory, writes
no report, and asserts both halves.
"""

from __future__ import annotations

import pytest
from campaign_cache import SPEEDUP_FLOOR, run_suite


@pytest.fixture(scope="module")
def cache_document():
    """Run the cold/warm passes once, in memory."""
    report = run_suite()
    return report["details"]


def test_cache_document_complete(cache_document):
    assert cache_document["grid_cells"] == 6
    assert cache_document["cold_seconds"] > 0
    assert cache_document["warm_seconds"] > 0
    assert cache_document["cold_misses"] == 6


def test_warm_run_is_all_hits(cache_document):
    assert cache_document["warm_hits"] == 6
    assert cache_document["warm_misses"] == 0
    assert cache_document["cache_bytes_read"] > 0
    assert cache_document["cache_bytes_written"] > 0


def test_warm_speedup_floor(cache_document):
    """A warm full-grid re-run must beat the cold one >= 10x.

    The warm pass does no simulation at all — it loads six npz entries and
    re-serializes the artifacts — so unlike the multi-worker scaling floor
    this holds on any hardware, single-core included.
    """
    assert cache_document["speedup"] >= SPEEDUP_FLOOR, \
        (f"warm {cache_document['warm_seconds']:.2f}s vs cold "
         f"{cache_document['cold_seconds']:.2f}s = "
         f"{cache_document['speedup']:.1f}x")


def test_cold_and_warm_artifacts_byte_identical(cache_document):
    assert cache_document["artifacts_identical"] is True
