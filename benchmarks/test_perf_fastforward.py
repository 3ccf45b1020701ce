"""Analytic fast-forward benchmarks.

The governing requirement of the analytic mode (DESIGN.md): event mode is
golden — the fast-forward must reproduce its traces bit for bit — and a
calibrated cell must run at least an order of magnitude faster
analytically.  ``repro-bench run fastforward`` records the numbers in
``BENCH_fastforward.json``; this module re-runs the suite in memory, writes
no report, and asserts both halves.
"""

from __future__ import annotations

import pytest
from kernel_fastforward import SPEEDUP_FLOOR, run_suite

#: Noise-tolerant floor for the grid-batched section (the committed
#: benchmark records >= 3x; shared CI runners get headroom).
BATCHED_TEST_FLOOR = 2.0


@pytest.fixture(scope="module")
def fastforward_document():
    """Run both kernels once, in memory."""
    report = run_suite()
    return report["details"]


def test_document_complete(fastforward_document):
    assert fastforward_document["event_seconds"] > 0
    assert fastforward_document["analytic_seconds"] > 0
    assert fastforward_document["equivalence"]["probes"] > 0


def test_analytic_speedup_floor(fastforward_document):
    """The analytic mode must beat the event kernel >= 10x on the cell."""
    assert fastforward_document["speedup"] >= SPEEDUP_FLOOR, \
        (f"analytic {fastforward_document['analytic_seconds']:.2f}s vs "
         f"event {fastforward_document['event_seconds']:.2f}s = "
         f"{fastforward_document['speedup']:.1f}x")


def test_traces_stay_equivalent(fastforward_document):
    """Speed means nothing if the answers drift (event mode is golden)."""
    equivalence = fastforward_document["equivalence"]
    assert equivalence["losses_identical"] is True
    assert equivalence["max_rtt_gap_seconds"] == 0.0


def test_batched_grid_speedup_floor(fastforward_document):
    """Grid-batched execution must beat per-cell >= 2x on the grid."""
    batched = fastforward_document["batched_vs_percell"]
    assert batched["batched_speedup"] >= BATCHED_TEST_FLOOR, \
        (f"batched {batched['batched_seconds']:.2f}s vs percell "
         f"{batched['percell_seconds']:.2f}s = "
         f"{batched['batched_speedup']:.1f}x")


def test_batched_grid_byte_identical(fastforward_document):
    """Replay reuse is pure execution: identical traces + queue stats."""
    batched = fastforward_document["batched_vs_percell"]
    assert batched["byte_identical"] is True
    assert batched["grid"]["cells"] >= 12
