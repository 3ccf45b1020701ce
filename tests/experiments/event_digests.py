"""SHA-256 digests of a few event-mode cells, pinned across commits.

Five short plain event runs (:func:`~repro.experiments.runner.
execute_experiment` with ``mode="event"``, the path every figure driver
and event campaign takes): INRIA-UMd and UMd-Pitt at δ = 50 ms and 8 ms,
and INRIA-UMd with an 8192-packet bottleneck buffer, each at its own
seed, with a short warm-up so the whole table recomputes in a few
seconds.  ``tests/data/event_digests.json`` holds, per cell, the SHA-256
of the probe send times and rtts (their float64 bytes) and of the cell's
``queue_stats`` as sorted-key JSON; ``tests/experiments/
test_event_digests.py`` recomputes them and names every cell that
differs.  Any change to the event engine's arithmetic or to the order in
which it executes events shows up here, on the unobserved path the
traced-run digests of ``tests/obs/hop_digests.py`` do not take.

Regenerate the table (from the repository root) only for a deliberate
change of that output, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.experiments.event_digests
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_experiment

#: Cell name -> configuration.  Warm-ups of a few seconds keep each
#: bottleneck loaded (its queue fills within the first second) while the
#: five cells stay within a few seconds of wall time together.
CELLS: Dict[str, ExperimentConfig] = {
    "inria-umd delta 50 ms seed 1": ExperimentConfig(
        delta=0.05, duration=20.0, warmup=5.0, seed=1),
    "inria-umd delta 8 ms seed 2": ExperimentConfig(
        delta=0.008, duration=8.0, warmup=5.0, seed=2),
    "umd-pitt delta 50 ms seed 3": ExperimentConfig(
        delta=0.05, duration=2.0, warmup=2.0, seed=3, scenario="umd-pitt"),
    "umd-pitt delta 8 ms seed 4": ExperimentConfig(
        delta=0.008, duration=1.5, warmup=2.0, seed=4, scenario="umd-pitt"),
    "inria-umd buffer 8192 delta 8 ms seed 5": ExperimentConfig(
        delta=0.008, duration=8.0, warmup=5.0, seed=5,
        scenario_kwargs={"buffer_packets": 8192}),
}
TABLE = Path(__file__).resolve().parents[1] / "data" / "event_digests.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_digests(config: ExperimentConfig) -> Dict[str, str]:
    """Run one event cell; digest its send times, rtts and queue stats."""
    result = execute_experiment(config)
    trace = result.trace
    return {
        "send_times": _sha256(trace.send_times.tobytes()),
        "rtts": _sha256(trace.rtts.tobytes()),
        "queue_stats": _sha256(json.dumps(
            result.queue_stats, sort_keys=True).encode()),
    }


def all_digests() -> Dict[str, Dict[str, str]]:
    """Every cell's digests, keyed by cell name."""
    return {name: cell_digests(config) for name, config in CELLS.items()}


def main() -> int:
    document = {
        "cells": {name: {"scenario": config.scenario,
                         "scenario_kwargs": config.scenario_kwargs,
                         "delta": config.delta,
                         "duration": config.duration,
                         "warmup": config.warmup, "seed": config.seed}
                  for name, config in CELLS.items()},
        "sha256": all_digests(),
    }
    TABLE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
