"""Tests of the benchmark's own harness, on a tiny grid and short figures.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Short drivers that still reach every analysis entry point the
#: paper_figures guard requires.
TINY_FIGURES = (
    ("table1", {}),
    ("figure2", {"count": 100}),
    ("figure8", {"duration": 20.0}),
    ("table3", {"duration": 10.0, "deltas": (0.05, 0.5)}),
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload, and build its golden at the default seed."""
    monkeypatch.setattr(workloads, "FIGURE_SET", TINY_FIGURES)
    monkeypatch.setattr(workloads, "CAMPAIGN_DELTAS", (0.05, 0.5))
    monkeypatch.setattr(workloads, "CAMPAIGN_DURATION", 10.0)
    monkeypatch.setattr(workloads, "CAMPAIGN_SEEDS",
                        {"campaign_analytic": 2, "campaign_pool": 2})
    return workloads.golden_document(tmp_path / "golden")


def traced(workload, seed, workdir, golden, bypass=None):
    """One traced operation; ``bypass`` re-binds one original function."""
    from repro.experiments import cache
    recorder = probes.Recorder(workload)
    installed = probes.install(recorder)
    try:
        cache.cache_salt()  # the set-up step child.py times
        if bypass is not None:
            module, attr = bypass
            wrapper = getattr(module, attr)
            setattr(module, attr, wrapper.__perfbench_original__)
        outcome = workloads.run(workload, seed, workdir, golden, recorder)
    finally:
        installed.uninstall()
    return outcome, recorder.drain()


def declared(group):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_and_units_match_benchmark_json(tiny, tmp_path,
                                                     workload):
    outcome, spans = traced(workload, 5, tmp_path, tiny)
    assert outcome["failed"] == 0 or workload == "paper_figures"
    assert probes.zero_call_violations(workload, spans) == []
    root = "op.warm" if workload == "paper_figures" else "op.cold"
    layers = probes.layer_metrics(spans, outcome["facts"], workload, root)
    rep = dict(outcome, setup_s=1.0, peak_rss_mb=100.0, kind="traced",
               layers=layers)
    untraced = dict(rep, kind="plain")
    trace_run = {"reps": [untraced, rep], "setups": [1.0]}
    assert set(run.summarize(workload, trace_run, True)) == \
        set(declared("per_layer"))
    plain_run = {"reps": [untraced], "setups": [1.0, 1.1, 0.9]}
    assert set(run.summarize(workload, plain_run, False)) == \
        set(declared("end_to_end"))
    assert run.declared_metrics() == {"end_to_end": declared("end_to_end"),
                                      "per_layer": declared("per_layer")}


def test_golden_check_passes_then_trips_on_perturbed_golden(tiny, tmp_path):
    runs = 1 + workloads.CAMPAIGN_WARM_RUNS
    outcome = workloads.run("campaign_analytic", workloads.DEFAULT_SEED,
                            tmp_path / "a", tiny)
    assert (outcome["attempted"], outcome["failed"]) == (4 * runs, 0)

    perturbed = json.loads(json.dumps(tiny))
    files = perturbed["campaign_analytic"]["files"]
    name = sorted(n for n in files if n.endswith(".csv"))[0]
    files[name] = "0" * 64
    outcome = workloads.run("campaign_analytic", workloads.DEFAULT_SEED,
                            tmp_path / "b", perturbed)
    # The cell fails in the cold run and again in every warm run.
    assert outcome["failed"] == runs
    assert any(name in error for error in outcome["facts"]["errors"])


def test_cold_warm_check_trips_on_a_perturbed_trace_csv(tiny, tmp_path,
                                                        monkeypatch):
    from repro.netdyn.trace import ProbeTrace
    save_csv = ProbeTrace.save_csv

    def perturbing_save(self, path):
        save_csv(self, path)
        if path.parent.name.startswith("warm") \
                and path.name.endswith("_s7.csv"):
            with open(path, "a") as handle:
                handle.write("\n")
    monkeypatch.setattr(ProbeTrace, "save_csv", perturbing_save)
    outcome = workloads.run("campaign_pool", 7, tmp_path, tiny)
    # Seed 7 is not the default: only cold/warm identity is checked, and
    # both δ values of seed 7 were perturbed in every warm run.
    assert outcome["failed"] == 2 * workloads.CAMPAIGN_WARM_RUNS
    assert all("differs from the cold run" in error
               for error in outcome["facts"]["errors"])


def test_normalization_and_medians_of_repeated_runs():
    nominal = workloads.REFERENCE_NOMINAL_S
    # Run between a reference at half speed and one at nominal speed.
    assert workloads.normalized(3.0, [2 * nominal], [nominal]) == \
        pytest.approx(2.0)
    times = workloads._timings([("cold", 2.0, 1.5), ("warm", 1.0, 0.5),
                                ("warm", 3.0, 2.5), ("warm", 2.0, 1.0)])
    assert times == {"wall_s": 2.0, "norm_wall_s": 1.5,
                     "warm_wall_s": 2.0, "warm_norm_wall_s": 1.0}


def test_zero_call_guard_names_a_bypassed_wrapper(tiny, tmp_path):
    from repro.experiments import figures
    outcome, spans = traced("paper_figures", 3, tmp_path, tiny,
                            bypass=(figures, "phase_points"))
    assert probes.zero_call_violations("paper_figures", spans) == \
        ["analysis.phase_points"]


def test_uninstall_restores_every_binding():
    from repro.experiments import campaign, fastforward, figures, runner
    before = (runner.build_scenario, figures.build_scenario,
              fastforward.build_scenario, campaign.write_manifest,
              figures.loss_stats)
    probes.install(probes.Recorder("x")).uninstall()
    assert (runner.build_scenario, figures.build_scenario,
            fastforward.build_scenario, campaign.write_manifest,
            figures.loss_stats) == before


def test_self_time_subtracts_direct_children():
    recorder = probes.Recorder("x")
    records = [
        {"id": "1", "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": "2", "name": "b", "start": 1.0, "end": 4.0, "parent": "1"},
        {"id": "3", "name": "c", "start": 2.0, "end": 3.0, "parent": "2"},
    ]
    assert probes.self_times(records) == {"1": 7.0, "2": 2.0, "3": 1.0}
    assert [r["id"] for r in probes.descendants(records, "1")] == ["2", "3"]
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    inner, outer = recorder.drain()
    assert inner["parent"] == outer["id"] and outer["parent"] is None


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
