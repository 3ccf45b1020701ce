"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload is one *operation* run twice in the same interpreter: a
cold run in a fresh process, then the same request again (the warm
re-run).  Every run is checked, and the checks feed ``attempted`` /
``failed``:

* ``paper_figures`` — the figure/table drivers of ``run_all``.  An
  operation is one comparison row; a MISS row fails.  The warm pass must
  render the same report as the cold pass, and at the default seed the
  report must equal the committed golden.
* ``campaign_analytic`` / ``campaign_pool`` — (δ × seed) campaigns.  An
  operation is one cell; a cell fails when the campaign raised or its
  trace CSV differs (cold vs warm, and at the default seed vs the golden
  digests, which for ``campaign_pool`` come from a *serial* run of the same
  spec, so the check also covers executor byte-identity).  A differing
  ``manifest.json`` fails every cell of that run.

Each run's wall time is also reported rescaled to a nominal host speed
(:func:`normalized`), measured by timing a fixed reference workload just
before and just after the run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments.campaign import CampaignSpec, cell_key, run_campaign
from repro.experiments.config import PAPER_DELTAS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import as_markdown

WORKLOADS = ("paper_figures", "campaign_analytic", "campaign_pool")

#: The seed whose artifacts are pinned in ``golden.json``.
DEFAULT_SEED = 1

#: The host-speed reference.  The benchmark runs on a few cores of a
#: shared host.  Neighbours there slow the same operation by up to 40%
#: for tens of seconds at a time, and CPU time rises with wall time, so
#: a bare time measures the neighbours as much as the program.  Each
#: operation is therefore bracketed by probes of REFERENCE_SAMPLES
#: timings of ``_reference_work`` (each figure driver by probes of its
#: own), and its wall time is rescaled by their mean to a host that runs
#: that work in REFERENCE_NOMINAL_S (about its time on an idle 2-core
#: host).
REFERENCE_SAMPLES = 3
REFERENCE_NOMINAL_S = 0.065

#: The figure drivers, in ``run_all`` order, with the probe counts and
#: durations this benchmark runs them at.  ``run_all()`` at its defaults
#: takes ~100 s on a 2-core host, which does not fit a benchmark run;
#: these run each INRIA-UMd driver at ~1/4 of its simulated time.  The
#: UMd-Pitt phase plots (Figures 5 and 6) are left out: each pays a 30 s
#: simulated warm-up on the busier UMd-Pitt mix (~9-12 s of host time at
#: any probe count), more than all the other drivers together, and they
#: share the INRIA-UMd figures' code path (event engine, phase analysis).
#: Table 2 still builds the UMd-Pitt scenario.
FIGURE_SET = (
    ("table1", {}),
    ("table2", {}),
    ("figure1", {"count": 200}),
    ("figure2", {"count": 600}),
    ("figure4", {"count": 200}),
    ("figure8", {"duration": 60.0}),
    ("figure9", {"duration": 90.0}),
    ("table3", {"duration": 30.0}),
)

#: Simulation seeds on which every comparison row of FIGURE_SET matches
#: the paper at this scale, and whose simulated event count lies within
#: EVENT_TOLERANCE of the median (``make_golden.py --vet 0 143`` lists
#: them).  The rows are statistical shape checks, so many seeds MISS at a
#: quarter of the default probe counts; and the random cross traffic
#: makes a pass's work vary by ±3% from seed to seed, which the tolerance
#: keeps out of the run-to-run spread.  The benchmark seed picks one of
#: these, and a row that later turns MISS is a real regression.
FIGURE_SEEDS = (8, 9, 21, 29, 30, 37, 41, 45, 71, 78, 86, 95, 110, 111, 131)
EVENT_TOLERANCE = 0.02

#: Cells per campaign: the paper's six δ values × this many seeds, each
#: probing for two minutes (a Table 3 cell at δ < 100 ms).
CAMPAIGN_DELTAS = PAPER_DELTAS
CAMPAIGN_DURATION = 120.0
CAMPAIGN_SEEDS = {"campaign_analytic": 8, "campaign_pool": 16}
CAMPAIGN_WORKERS = {"campaign_analytic": 1, "campaign_pool": 2}
CAMPAIGN_KWARGS: Dict[str, Dict[str, Any]] = {
    "campaign_analytic": {},
    # A buffer no burst can fill: every bottleneck takes the vectorized
    # no-drop certificate pass, so cells are cheap and dispatch shows.
    "campaign_pool": {"buffer_packets": 8192},
}

#: A warm campaign re-run takes a fraction of a second, so one sample per
#: repetition is mostly noise: untraced repetitions re-run it this many
#: times and report the median.  A traced repetition re-runs it once, so
#: its layer sums cover one cold and one warm run.
CAMPAIGN_WARM_RUNS = 5


def figure_seed(seed: int) -> int:
    """The simulation seed the figure drivers run with."""
    return FIGURE_SEEDS[seed % len(FIGURE_SEEDS)]


def campaign_spec(workload: str, seed: int, output_dir: Path) -> CampaignSpec:
    """The campaign grid of ``workload`` for benchmark seed ``seed``."""
    return CampaignSpec(
        deltas=CAMPAIGN_DELTAS,
        seeds=list(range(seed, seed + CAMPAIGN_SEEDS[workload])),
        duration=CAMPAIGN_DURATION, scenario="inria-umd",
        scenario_kwargs=dict(CAMPAIGN_KWARGS[workload]),
        output_dir=output_dir, mode="analytic")


def artifact_digests(directory: Path) -> Dict[str, str]:
    """SHA-256 of ``manifest.json`` and every trace CSV in ``directory``."""
    names = ["manifest.json"] + sorted(
        path.name for path in directory.glob("trace_*.csv"))
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names if (directory / name).exists()}


def _reference_work() -> float:
    """The two kinds of work the workloads do, in fixed amounts: an event
    queue driven from the interpreter, then vectorized NumPy passes."""
    heap: List[tuple] = []
    total = 0.0
    for i in range(40000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 1e-3, i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
    x = np.arange(500_000, dtype=np.float64) % 97.0
    y = np.maximum.accumulate(np.cumsum(x) - 40.0 * np.arange(x.size))
    return total + float(np.searchsorted(np.sort(y), y[::7]).sum())


def reference_seconds() -> List[float]:
    """Wall times of a fixed piece of interpreter and NumPy work."""
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        started = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - started)
    return samples


def normalized(wall_s: float, before: List[float],
               after: List[float]) -> float:
    """``wall_s`` rescaled to the nominal host speed around the run."""
    return wall_s * REFERENCE_NOMINAL_S / statistics.mean(before + after)


def _root(recorder, name: str):
    return nullcontext() if recorder is None else recorder.span(name)


def run(workload: str, seed: int, workdir: Path, golden: Dict[str, Any],
        recorder=None) -> Dict[str, Any]:
    """Run one operation of ``workload``; returns timings, counts, facts.

    With a ``recorder`` (a traced run) each run sits under an ``op.cold``
    / ``op.warm`` root span.  ``paper_figures`` keeps its cold pass
    untraced (recording paused) so one process yields both the untraced
    and the traced wall time.
    """
    if workload == "paper_figures":
        return _figures(seed, golden, recorder)
    if workload in CAMPAIGN_SEEDS:
        return _campaign(workload, seed, workdir, golden, recorder)
    raise ValueError(f"unknown workload {workload!r}")


def _timings(samples: List[tuple]) -> Dict[str, float]:
    """Medians of the raw and the normalized times of each kind of run.

    ``samples`` holds one ``(kind, wall, normalized wall)`` per completed
    run, ``kind`` being ``"cold"`` or ``"warm"``.
    """
    times: Dict[str, float] = {}
    for kind, prefix in (("cold", ""), ("warm", "warm_")):
        runs = [sample for sample in samples if sample[0] == kind]
        times[prefix + "wall_s"] = statistics.median(
            [wall for _, wall, _ in runs]) if runs else 0.0
        times[prefix + "norm_wall_s"] = statistics.median(
            [norm for _, _, norm in runs]) if runs else 0.0
    return times


def _figure_pass(sim_seed: int, bracket: bool) -> tuple:
    """Run FIGURE_SET once; returns the results, wall and normalized wall.

    With ``bracket`` every driver runs between reference probes of its
    own, so the rescaling follows the host through the pass, and the
    probes' own time is not counted.  A traced pass must not hold probes
    in its spans, so it runs without them and its normalized wall is its
    bare wall.
    """
    results = []
    wall = norm = 0.0
    before = reference_seconds() if bracket else []
    for driver, kwargs in FIGURE_SET:
        started = time.perf_counter()
        results.append(ALL_FIGURES[driver](seed=sim_seed, **kwargs))
        elapsed = time.perf_counter() - started
        wall += elapsed
        if bracket:
            after = reference_seconds()
            norm += normalized(elapsed, before, after)
            before = after
    return results, wall, norm if bracket else wall


def _figures(seed: int, golden: Dict[str, Any], recorder) -> Dict[str, Any]:
    sim_seed = figure_seed(seed)
    samples: List[tuple] = []
    reports: Dict[str, List[str]] = {}
    attempted = failed = 0
    missed: List[str] = []
    for name in ("cold", "warm"):
        if recorder is not None:
            recorder.enabled = name == "warm"
        with _root(recorder, f"op.{name}"):
            results, wall, norm = _figure_pass(sim_seed, recorder is None)
        samples.append((name, wall, norm))
        rows = [(result.figure_id, row) for result in results
                for row in result.rows]
        # as_markdown: two header lines, then one line per row in order.
        reports[name] = as_markdown(results).splitlines()[2:]
        attempted += len(rows)
        bad = {index for index, (_, row) in enumerate(rows) if not row.ok}
        missed += [f"{name}: {figure} {row.name} ({row.measured})"
                   for figure, row in rows if not row.ok]
        if name == "warm":
            bad |= _differing(reports["cold"], reports["warm"])
        if seed == DEFAULT_SEED:
            bad |= _differing(golden["paper_figures"]["rows"], reports[name])
        failed += len(bad)
    return dict(_timings(samples), attempted=attempted,
                failed=failed, facts={"figure_seed": sim_seed,
                                      "missed_rows": missed, "dispatch": []})


def _differing(expected: List[str], actual: List[str]) -> set:
    """Row indices whose report line differs (or exists on one side)."""
    width = max(len(expected), len(actual))
    return {index for index in range(width)
            if index >= len(expected) or index >= len(actual)
            or expected[index] != actual[index]}


def _campaign(workload: str, seed: int, workdir: Path,
              golden: Dict[str, Any], recorder) -> Dict[str, Any]:
    workers = CAMPAIGN_WORKERS[workload]
    cache_dir = workdir / "cache" if workload == "campaign_analytic" else None
    spec = campaign_spec(workload, seed, workdir / "cold")
    cells = len(spec.cells())
    warm_runs = 1 if recorder is not None else CAMPAIGN_WARM_RUNS
    names = ["cold"] + ["warm"] * warm_runs
    walls: List[tuple] = []
    # The warm re-runs share the probes around their block.
    probes = [reference_seconds()]
    cold_digests: Optional[Dict[str, str]] = None
    facts: Dict[str, Any] = {"dispatch": [], "cache": [],
                             "fallback_reasons": {}}
    attempted = failed = 0
    errors: List[str] = []
    for index, name in enumerate(names):
        run_spec = replace(spec, output_dir=workdir / f"{name}{index}")
        attempted += cells
        if index == 1:
            probes.append(reference_seconds())
        with _root(recorder, f"op.{name}"):
            started = time.perf_counter()
            try:
                result = run_campaign(run_spec, workers=workers,
                                      cache=cache_dir)
            except Exception as exc:  # a raised campaign fails every cell
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                failed += cells
                continue
            walls.append((name, time.perf_counter() - started))
        out = Path(run_spec.output_dir)
        timing = json.loads((out / "timing.json").read_text())
        facts["dispatch"].append(timing.get("dispatch") or {})
        facts["cache"].append(result.cache_stats and {
            key: value for key, value in result.cache_stats.items()
            if key != "cells"})
        for (delta, cell_seed), trace in result.traces.items():
            if trace.meta.get("fallback"):
                facts["fallback_reasons"][cell_key(delta, cell_seed)] = \
                    trace.meta["fallback"]
        if name == "cold":
            facts["cold_wall_s"] = walls[-1][1]
            facts["cold_cell_wall_s"] = sum(result.cell_wall_seconds.values())
        if name == "warm" and cache_dir is not None \
                and result.cache_stats["hits"] != cells:
            errors.append(f"warm re-run hit {result.cache_stats['hits']} "
                          f"of {cells} cached cells")
            failed += cells - result.cache_stats["hits"]
        digests = artifact_digests(out)
        references = []
        if name == "warm" and cold_digests is not None:
            references.append(("cold run", cold_digests))
        if seed == DEFAULT_SEED:
            references.append(("golden", golden[workload]["files"]))
        bad = _failed_cells(spec, digests, references, errors, name)
        failed += len(bad)
        if name == "cold":
            cold_digests = digests
    facts["errors"] = errors
    probes.append(reference_seconds())
    around = {"cold": probes[:2], "warm": probes[1:]}
    samples = [(name, wall, normalized(wall, *around[name]))
               for name, wall in walls]
    return dict(_timings(samples), attempted=attempted,
                failed=failed, facts=facts)


def _failed_cells(spec: CampaignSpec, actual: Dict[str, str],
                  references: List[tuple], errors: List[str],
                  name: str) -> set:
    """Cells whose artifacts differ from any reference digest map."""
    keys = [cell_key(delta, seed) for delta, seed in spec.cells()]
    bad = set()
    for label, expected in references:
        if actual.get("manifest.json") != expected.get("manifest.json"):
            errors.append(f"{name}: manifest.json differs from the {label}")
            bad.update(keys)
        for key in keys:
            csv = f"trace_{key}.csv"
            if csv not in actual or actual[csv] != expected.get(csv):
                errors.append(f"{name}: {csv} differs from the {label}")
                bad.add(key)
    return bad


def golden_document(workdir: Path) -> Dict[str, Any]:
    """Golden artifacts of the default seed (see ``make_golden.py``).

    ``campaign_pool``'s golden is produced by a *serial* run of its spec,
    so a pool run that matches it is byte-identical to serial execution.
    """
    document: Dict[str, Any] = {"default_seed": DEFAULT_SEED}
    sim_seed = figure_seed(DEFAULT_SEED)
    results = [ALL_FIGURES[driver](seed=sim_seed, **kwargs)
               for driver, kwargs in FIGURE_SET]
    document["paper_figures"] = {
        "figure_seed": sim_seed,
        "rows": as_markdown(results).splitlines()[2:]}
    for workload in CAMPAIGN_SEEDS:
        out = workdir / workload
        run_campaign(campaign_spec(workload, DEFAULT_SEED, out), workers=1)
        document[workload] = {"executor": "serial",
                              "files": artifact_digests(out)}
    return document


def vet_figure_seeds(seeds: List[int]) -> Dict[int, int]:
    """Seeds on which every FIGURE_SET row matches, with their event counts.

    The count is every simulated event the drivers execute: the figure
    pass's work, which varies with the seed's random cross traffic.
    """
    import probes
    passing = {}
    for seed in seeds:
        recorder = probes.Recorder("paper_figures")
        installed = probes.install(recorder)
        try:
            results = [ALL_FIGURES[driver](seed=seed, **kwargs)
                       for driver, kwargs in FIGURE_SET]
        finally:
            installed.uninstall()
        if all(result.all_ok for result in results):
            passing[seed] = sum(
                span["attrs"]["events"] for span in recorder.drain()
                if span["name"] == "runner.probe_scenario")
    return passing


def even_work_seeds(passing: Dict[int, int]) -> List[int]:
    """The passing seeds within EVENT_TOLERANCE of the median event count."""
    median = statistics.median(passing.values())
    return sorted(seed for seed, events in passing.items()
                  if abs(events / median - 1.0) <= EVENT_TOLERANCE)
