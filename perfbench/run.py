"""The repository benchmark: one workload, one seed, a fixed time budget.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_analytic --seed 1 \\
        --seconds 40 --trace 0

Every repetition runs in a fresh interpreter (``child.py``), so no
process-wide memo (the replay memo, the memoized cache salt) leaks from
one repetition into the next.  Repetitions continue while the next one is
expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the repetitions.  ``--trace 1`` reports the per-layer
metrics: campaign workloads alternate untraced and traced repetitions,
and ``paper_figures`` runs an untraced cold pass then a traced warm pass
in one interpreter; the wall-time difference is ``trace_overhead_frac``.

The last stdout line is the result object; the line before it carries the
facts that explain the numbers (machine, cache salt, dispatch blocks,
fallback reasons).  The full per-repetition record — spans included on a
traced run — is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_figures", "campaign_analytic", "campaign_pool")

#: Set-up samples a run reports the median of.
SETUP_SAMPLES = 3

#: Hard cap on one repetition (a hung child must not hang the run).
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A repetition failed to produce a record."""


def run_child(kind: str, workload: str, seed: int, workdir: Path,
              ) -> Dict[str, Any]:
    workdir.mkdir(parents=True, exist_ok=True)
    request = {"root": str(ROOT), "workload": workload, "seed": seed,
               "kind": kind, "workdir": str(workdir)}
    request["spawned"] = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{kind} repetition of {workload} timed out") \
            from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{kind} repetition of {workload} exited with "
                         f"status {done.returncode}")
    return json.loads(lines[-1])


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """name -> unit, for the end-to-end and per-layer metric lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> Dict[str, Any]:
    """Run repetitions for ``seconds``; returns the run record."""
    if not trace:
        cycle = ["plain"]
    elif workload == "paper_figures":
        cycle = ["traced"]
    else:
        cycle = ["plain", "traced"]
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    started = time.monotonic()
    longest_cycle = 0.0
    while True:
        cycle_start = time.monotonic()
        for kind in cycle:
            record = run_child(kind, workload, seed,
                               work / f"rep{len(reps)}")
            record["kind"] = kind
            reps.append(record)
            setups.append(record["setup_s"])
        now = time.monotonic()
        longest_cycle = max(longest_cycle, now - cycle_start)
        if now - started + longest_cycle > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child("setup", workload, seed,
                                work / "setup")["setup_s"])
    return {"reps": reps, "setups": setups,
            "elapsed_s": time.monotonic() - started}


def summarize(workload: str, run: Dict[str, Any], trace: bool,
              ) -> Dict[str, float]:
    """The metric values one run reports (medians over repetitions)."""
    reps = run["reps"]
    plain = [r for r in reps if r["kind"] == "plain"]
    traced = [r for r in reps if r["kind"] == "traced"]
    if not trace:
        return {
            "setup_s": statistics.median(run["setups"]),
            "norm_wall_s": statistics.median(
                r["norm_wall_s"] for r in plain),
            "warm_norm_wall_s": statistics.median(
                r["warm_norm_wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    if workload == "paper_figures":
        # One interpreter: untraced cold pass, traced warm pass.
        untraced = statistics.median(r["wall_s"] for r in traced)
        layers["trace_overhead_frac"] = statistics.median(
            (r["warm_wall_s"] - r["wall_s"]) / r["wall_s"] for r in traced)
    else:
        untraced = statistics.median(r["wall_s"] for r in plain)
        layers["trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) - untraced
        ) / untraced
    layers["wall_s"] = untraced
    return layers


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        run = measure(args.workload, args.seed, args.seconds, trace, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    values = summarize(args.workload, run, trace)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in run["reps"])
    failed = sum(r["failed"] for r in run["reps"])
    facts = {"workload": args.workload, "seed": args.seed, "trace": trace,
             "machine": run["reps"][0]["machine"],
             "repetitions": len(run["reps"]),
             "setup_samples": len(run["setups"]),
             "elapsed_s": run["elapsed_s"],
             "runs": [r["facts"] for r in run["reps"]]}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"facts": facts, "reps": run["reps"], "setups": run["setups"]},
        indent=1))
    print("perfbench facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
