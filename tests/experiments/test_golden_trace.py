"""Golden-trace regression: the standard 50 ms cell is frozen byte-for-byte.

``tests/data/golden_inria_umd_50ms.csv`` is the CSV of the calibrated
INRIA→UMd scenario at δ=50 ms, duration 30 s, seed 1, saved before the
hot-path rework.  Any change to the kernel, the RNG layering, the traffic
sources, or the network substrate that perturbs a single draw or timestamp
shows up here as a byte diff.  The observed variant additionally pins the
zero-perturbation observer contract: tracing everything changes nothing.
"""

from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, run_observed_experiment

GOLDEN = Path(__file__).resolve().parents[1] / "data" \
    / "golden_inria_umd_50ms.csv"
CONFIG = ExperimentConfig(delta=0.05, duration=30.0, seed=1)


def _csv_bytes(trace, tmp_path) -> bytes:
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    return path.read_bytes()


def test_standard_cell_matches_golden_trace(tmp_path):
    trace = run_experiment(CONFIG)
    assert _csv_bytes(trace, tmp_path) == GOLDEN.read_bytes()


def test_standard_cell_matches_golden_trace_with_observers(tmp_path):
    trace, _, obs = run_observed_experiment(CONFIG, trace=True)
    # The observers must have actually recorded something, or this test
    # would trivially collapse into the untraced variant.
    assert obs.lifecycle is not None and len(obs.lifecycle) > 0
    assert _csv_bytes(trace, tmp_path) == GOLDEN.read_bytes()
