"""Measurement campaigns: grids of probe experiments with saved traces.

The paper's Table 3 is a campaign — one experiment per δ.  This module
generalizes that: run a grid of (δ × seed), persist every trace as CSV,
and aggregate the loss/delay metrics with cross-seed confidence intervals
(:mod:`repro.analysis.stats`).  The ``repro-experiment`` CLI covers single
runs; campaigns are the API for systematic studies (``repro-campaign``
drives this module from the command line).

Cells are independent by construction — each owns its own
:class:`~repro.sim.kernel.Simulator` seeded from the cell's seed — so the
grid is embarrassingly parallel.  :func:`run_campaign` executes every grid
the same way: :func:`~repro.experiments.pool.plan_leases` cuts the cells
into deterministic *leases* (one cell each on the event engine;
seed-major batches for analytic grids, so a seed's cross-traffic replay
is reused across its δ values), every lease runs
the same pure worker (:func:`_run_cell`) and returns its CellResults in
one lease payload — the only way a fresh cell, and its span telemetry,
reaches this process — and a streaming
grid-order merge (heap keyed on grid index) folds the cells into
artifacts.  Only the lease source differs:

* ``workers=1`` — leases are served one by one in this process
  (:func:`~repro.experiments.pool.serve_leases`).
* ``workers=N > 1`` — a :class:`~repro.experiments.pool.WarmWorkerPool`
  (a :class:`concurrent.futures.ProcessPoolExecutor` of ``N`` processes)
  serves them, while the parent folds completed leases as later ones are
  still simulating.  Every lease carries the parent's cache salt, and a
  worker holding other code refuses every lease it is sent.

Either way the tables, trace CSVs, and ``manifest.json`` are
byte-identical.  Execution mechanics — worker counts, lease/batch shapes,
replay-memo hits, per-cell wall seconds — land exclusively in the
``timing.json`` sidecar (its ``dispatch`` block), never in the manifest.

Cell purity also makes cells memoizable: pass ``cache=`` (a directory or
:class:`~repro.experiments.cache.CampaignCache`) and :func:`run_campaign`
consults the content-addressed cell cache before submitting work — only
misses are simulated, hits are loaded from disk, and both are merged in
grid order, so a warm re-run produces byte-identical artifacts to a cold
one (the serial==parallel invariant extended to cold==warm).  Cache
behaviour (hits, misses, byte volumes) is execution mechanics and lands in
``timing.json``, never the manifest.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.loss import loss_stats
from repro.analysis.stats import ReplicationSummary, replicate
from repro.analysis.timeseries import summarize
from repro.errors import ConfigurationError
from repro.experiments.cache import CampaignCache, resolve_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.fastforward import cell_horizon, process_replay_memo
from repro.experiments.pool import WarmWorkerPool, plan_leases, \
    serve_leases
from repro.experiments.runner import execute_experiment
from repro.netdyn.trace import ProbeTrace
from repro.obs.export import write_chrome_trace, write_spans_jsonl
from repro.obs.manifest import write_manifest, write_timing
from repro.obs.progress import ProgressLike, resolve_progress
from repro.obs.spans import (
    CHROME_SPAN_FILE,
    MERGED_SPAN_FILE,
    PHASE_ANALYSIS,
    PHASE_CACHE,
    PHASE_CAMPAIGN,
    PHASE_CELL,
    PHASE_LEASE,
    PHASE_MERGE,
    SpanRecord,
    SpanTracer,
    merge_spans,
    optional_span,
    resolve_span_dir,
    summarize_spans,
)
from repro.units import seconds_to_ms


@dataclass
class CampaignSpec:
    """Definition of a measurement campaign.

    Attributes
    ----------
    deltas:
        Probe intervals to sweep, seconds.
    seeds:
        Seeds to replicate each cell with.
    duration:
        Probe-train length per experiment, seconds.
    scenario:
        Topology name (see :class:`~repro.experiments.config.ExperimentConfig`).
    scenario_kwargs:
        Extra topology parameters, applied to every cell.
    output_dir:
        When given, every trace is saved as
        ``<output_dir>/trace_d<delta_ms>_s<seed>.csv``.
    mode:
        Execution mode applied to every cell: ``"event"`` (exact, the
        golden reference) or ``"analytic"`` (fast-forwarded bottleneck;
        see :mod:`repro.experiments.fastforward`).  Hashed into every
        cell fingerprint, so the two modes never share cache entries.

    Every cell's :class:`~repro.experiments.config.ExperimentConfig` is
    built (and so validated) on construction, and two cells may not share
    a :func:`cell_key`: their trace CSVs would overwrite each other.
    """

    deltas: Sequence[float]
    seeds: Sequence[int]
    duration: float = 120.0
    scenario: str = "inria-umd"
    scenario_kwargs: dict = field(default_factory=dict)
    output_dir: Optional[Union[str, Path]] = None
    mode: str = "event"

    def __post_init__(self) -> None:
        if not self.deltas:
            raise ConfigurationError("campaign needs at least one delta")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        keys: Dict[str, Tuple[float, int]] = {}
        for delta, seed in self.cells():
            _cell_config(self, delta, seed)
            key = cell_key(delta, seed)
            if key in keys:
                raise ConfigurationError(
                    f"campaign cells {keys[key]} and {(delta, seed)} share "
                    f"the cell key {key!r}; every (delta, seed) pair must "
                    "be distinct at millisecond resolution")
            keys[key] = (delta, seed)

    def cells(self) -> list[tuple[float, int]]:
        """Every (delta, seed) pair, in grid order (δ-major, seed-minor)."""
        return [(delta, seed) for delta in self.deltas for seed in self.seeds]


def cell_key(delta: float, seed: int) -> str:
    """Stable string id of one cell, e.g. ``"d100_s1"`` (δ in ms)."""
    return f"d{seconds_to_ms(delta):g}_s{seed}"


def _cell_config(spec: CampaignSpec, delta: float,
                 seed: int) -> ExperimentConfig:
    """The experiment one (delta, seed) cell of ``spec`` runs."""
    return ExperimentConfig(delta=delta, duration=spec.duration,
                            seed=seed, scenario=spec.scenario,
                            scenario_kwargs=dict(spec.scenario_kwargs),
                            mode=spec.mode)


@dataclass
class CellResult:
    """Everything one (delta, seed) cell produces.

    Returned by :func:`_run_cell`; plain data (numpy arrays, dicts,
    floats) so it pickles cleanly between processes.
    """

    delta: float
    seed: int
    trace: ProbeTrace
    #: queue label -> drop/occupancy stats (see
    #: :func:`~repro.experiments.runner.collect_queue_stats`).
    queue_stats: dict[str, dict[str, float]]
    #: flat metric name -> value (see :func:`_cell_metrics`).
    metrics: dict[str, float]
    #: host wall-clock cost of the cell (build + warm-up + probe train).
    wall_seconds: float


@dataclass
class CampaignResult:
    """All traces and per-δ cross-seed summaries of one campaign."""

    spec: CampaignSpec
    #: (delta, seed) -> trace.
    traces: dict[tuple[float, int], ProbeTrace]
    #: delta -> cross-seed metric summary.
    summaries: dict[float, ReplicationSummary]
    #: (delta, seed) -> {queue label -> drop/occupancy stats}.
    queue_stats: dict[tuple[float, int], dict[str, dict[str, float]]] = \
        field(default_factory=dict)
    #: cell key ("d<ms>_s<seed>") -> host wall seconds for that cell.
    cell_wall_seconds: dict[str, float] = field(default_factory=dict)
    #: worker processes the campaign was executed with.
    workers: int = 1
    #: cell-cache accounting for this run (None when no cache was used):
    #: hits/misses/bytes plus a per-cell hit-or-miss map.  Execution
    #: mechanics only — lands in timing.json, never the manifest.
    cache_stats: Optional[Dict[str, Any]] = None
    #: dispatch accounting: which lease source ran the grid (serial /
    #: warm pool), lease count and batch size, replay-memo hits and
    #: misses.  Execution mechanics only — lands in timing.json's
    #: ``dispatch`` block, never the manifest.
    dispatch_stats: Optional[Dict[str, Any]] = None

    def table(self) -> str:
        """Per-δ metric table with cross-seed means."""
        lines = [f"{'delta':>8} {'ulp':>14} {'clp':>14} "
                 f"{'mean rtt ms':>16} {'runs':>5}"]
        for delta in self.spec.deltas:
            summary = self.summaries[delta]
            ulp = summary.interval("ulp") if len(self.spec.seeds) > 1 \
                else None
            mean_of = {k: sum(v) / len(v) for k, v in summary.values.items()}
            ulp_text = (f"{mean_of['ulp']:.3f}±{ulp.width / 2:.3f}"
                        if ulp else f"{mean_of['ulp']:.3f}")
            lines.append(
                f"{seconds_to_ms(delta):6.0f}ms {ulp_text:>14} "
                f"{mean_of['clp']:14.3f} "
                f"{seconds_to_ms(mean_of['mean_rtt']):16.1f} "
                f"{len(self.spec.seeds):5d}")
        return "\n".join(lines)

    def queue_table(self) -> str:
        """Per-cell queue report: drops and time-weighted occupancy."""
        lines = [f"{'delta':>8} {'seed':>5} {'queue':<44} {'drops':>7} "
                 f"{'loss':>7} {'occ pkts':>9} {'max':>5}"]
        for (delta, seed), queues in sorted(self.queue_stats.items()):
            for label, stats in queues.items():
                lines.append(
                    f"{seconds_to_ms(delta):6.0f}ms {seed:5d} {label:<44} "
                    f"{int(stats['drops']):7d} "
                    f"{stats['loss_fraction']:7.3f} "
                    f"{stats['occupancy_mean_pkts']:9.2f} "
                    f"{int(stats['occupancy_max_pkts']):5d}")
        return "\n".join(lines)


#: Ceiling applied to plg so cross-seed aggregation stays finite (plg is
#: 1/(1-clp), which diverges as clp -> 1).
PLG_CEILING = 1e6


def _cell_metrics(trace: ProbeTrace) -> dict[str, float]:
    losses = loss_stats(trace)
    delay = summarize(trace)
    return {
        "ulp": losses.ulp,
        "clp": losses.clp,
        "plg": min(losses.plg, PLG_CEILING),  # keep aggregation finite
        # Surfaced so downstream aggregation can tell a true 1e6 from a
        # clamped divergence (it used to be silent).
        "plg_clamped": losses.plg > PLG_CEILING,
        "mean_rtt": delay.mean,
        "p99_rtt": delay.p99,
        "min_rtt": delay.minimum,
    }


def _replay_horizon(spec: CampaignSpec, config: ExperimentConfig) -> float:
    """The grid's longest cell horizon for ``config``'s seed.

    Cells of one seed differ only in δ, and ``cell_horizon`` (warm-up +
    ``round(duration / δ) · δ`` + drain) varies with δ.  A replay built
    at the maximum over ``spec.deltas`` covers every δ of the seed, so
    the first cell's memo miss serves the rest as hits whatever order
    they run in.
    """
    return max(cell_horizon(dataclasses.replace(config, delta=delta))
               for delta in spec.deltas)


def _run_cell(spec: CampaignSpec, delta: float, seed: int,
              tracer: Optional[SpanTracer] = None) -> CellResult:
    """Execute one (delta, seed) cell and return its full result.

    Pure with respect to the campaign result: the simulated outcome reads
    only the arguments and touches no shared state, so the cell can run in
    this process or in a pool worker interchangeably.  Trace CSVs and
    manifests are written by the parent after the deterministic merge.
    The engine is :func:`~repro.experiments.runner.execute_experiment`'s
    choice; analytic cells share this process's cross-traffic replay memo
    (:func:`~repro.experiments.fastforward.process_replay_memo`), built
    out to the grid's longest horizon — pure reuse of deterministic
    streams, never an input.  With a ``tracer`` (its lease's) the cell
    additionally times its setup/sim/analysis phases into it — telemetry
    only, shipped beside (never into) the deterministic artifacts; the
    simulated work makes the same calls either way, so the returned trace
    is byte-identical with spans on or off.
    """
    config = _cell_config(spec, delta, seed)
    key = cell_key(delta, seed)
    with optional_span(tracer, f"cell {key}", PHASE_CELL, cell=key):
        # Host bookkeeping only: build + warm-up + probe train, kept in
        # timing.json and never fed back into simulated time.
        started = perf_counter()  # repro: noqa[FLOW001]
        result = execute_experiment(
            config, memo=process_replay_memo(),
            replay_horizon=_replay_horizon(spec, config), tracer=tracer)
        wall = perf_counter() - started  # repro: noqa[FLOW001]
        with optional_span(tracer, "analysis", PHASE_ANALYSIS):
            cell = CellResult(
                delta=delta, seed=seed, trace=result.trace,
                queue_stats=result.queue_stats,
                metrics=_cell_metrics(result.trace), wall_seconds=wall)
    return cell


class _GridMerge:
    """Streaming grid-order fold of CellResults into campaign artifacts.

    Cells arrive in completion order (hits first, then whatever the
    executor yields); a heap keyed on grid index holds the out-of-order
    tail while every cell at the front of the grid is folded immediately —
    trace CSV written, fresh result stored to the cache, accumulators
    updated.  Folding is therefore strictly in (δ, seed) grid order no
    matter which executor ran the grid or how its completions interleaved,
    which is what keeps serial and warm-pool artifacts byte-identical —
    and it overlaps parent-side aggregation and cache
    writes with worker simulation instead of barriering on the full grid.
    """

    def __init__(self, spec: CampaignSpec,
                 grid: Sequence[Tuple[float, int]],
                 output_dir: Optional[Path],
                 cache: Optional[CampaignCache]) -> None:
        self._spec = spec
        self._order = {cell: index for index, cell in enumerate(grid)}
        self._output_dir = output_dir
        self._cache = cache
        self._heap: List[Tuple[int, bool, CellResult]] = []
        self._next = 0
        #: Grid-ordered accumulators (complete once every cell folded).
        self.results: List[CellResult] = []
        self.traces: Dict[Tuple[float, int], ProbeTrace] = {}
        self.queue_stats: Dict[Tuple[float, int],
                               Dict[str, Dict[str, float]]] = {}
        self.cell_metrics: Dict[str, Dict[str, float]] = {}
        self.cell_wall: Dict[str, float] = {}
        self.written: List[str] = []

    def add(self, cell: CellResult, cached: bool = False) -> None:
        """Accept one completed cell; fold every in-order prefix cell."""
        index = self._order[(cell.delta, cell.seed)]
        heapq.heappush(self._heap, (index, cached, cell))
        while self._heap and self._heap[0][0] == self._next:
            _, was_cached, ready = heapq.heappop(self._heap)
            self._fold(ready, was_cached)
            self._next += 1

    def _fold(self, cell: CellResult, cached: bool) -> None:
        key = cell_key(cell.delta, cell.seed)
        self.results.append(cell)
        self.traces[(cell.delta, cell.seed)] = cell.trace
        self.queue_stats[(cell.delta, cell.seed)] = cell.queue_stats
        self.cell_metrics[key] = cell.metrics
        self.cell_wall[key] = cell.wall_seconds
        if not cached and self._cache is not None:
            self._cache.store(self._spec, cell.delta, cell.seed, cell)
        if self._output_dir:
            name = f"trace_{key}.csv"
            cell.trace.save_csv(self._output_dir / name)
            self.written.append(name)

    def require_complete(self) -> None:
        if self._next != len(self._order):
            raise ConfigurationError(
                f"campaign merge incomplete: folded {self._next} of "
                f"{len(self._order)} cells")


def run_campaign(spec: CampaignSpec, workers: int = 1,
                 cache: Union[CampaignCache, str, Path, None] = None,
                 spans: Union[bool, str, Path, None] = None,
                 progress: ProgressLike = None) -> CampaignResult:
    """Execute every (delta, seed) cell of the campaign.

    Parameters
    ----------
    spec:
        The campaign grid.
    workers:
        Worker processes to fan cells out over.  ``1`` (the default)
        serves every lease in this process; ``N > 1`` serves them on a
        :class:`~repro.experiments.pool.WarmWorkerPool` of ``N``
        salt-verified workers, started for this campaign and closed after
        it.  Every lease runs the same per-cell worker and the merge folds
        cells in grid order, so the resulting tables, CSVs, and
        ``manifest.json`` are byte-identical for any worker count.
        Cells per lease follow from the cell mode, the grid size, and
        the worker count (see :func:`~repro.experiments.pool.plan_leases`).
    cache:
        Optional cell cache — a directory path or a
        :class:`~repro.experiments.cache.CampaignCache`.  The cache is
        consulted in one batched pass before dispatch; only the misses
        are planned into leases and simulated, and fresh results are
        stored back as they fold.  A warm re-run writes byte-identical
        artifacts to a cold one; only ``timing.json`` (and the result's
        ``cache_stats``) records what was hit.
    spans:
        Span telemetry: ``True`` writes span files under
        ``<output_dir>/spans``; a path uses that directory; ``None``/
        ``False`` (the default) records nothing.  Every lease's
        setup/sim/analysis spans travel back in its payload; at the end of
        the run the parent merges everything in grid order into
        ``spans.jsonl`` plus a Chrome ``trace_event`` flame graph
        (``trace.json``) — the only two files it writes there — and
        summarizes phase totals into ``timing.json``.  Telemetry only:
        every deterministic artifact is byte-identical with spans on or
        off.
    progress:
        Live progress reporting: ``True``/``"auto"`` draws a status line
        when stderr is a TTY, ``"on"`` forces it, ``None``/``False``/
        ``"off"`` (the default) is silent, and an existing
        :class:`~repro.obs.progress.ProgressReporter` is used as-is.
        Pure presentation on its stream — artifacts are unaffected.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    cache = resolve_cache(cache)
    output_dir = Path(spec.output_dir) if spec.output_dir else None
    span_dir = resolve_span_dir(spans, spec.output_dir)
    for directory in (output_dir, span_dir):
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
    tracer = SpanTracer(worker="main") if span_dir is not None else None
    worker_records: List[SpanRecord] = []

    grid = spec.cells()
    grid_keys = [cell_key(delta, seed) for delta, seed in grid]
    reporter = resolve_progress(progress, total=len(grid), workers=workers)
    if reporter is not None:
        reporter.start()

    with optional_span(tracer, "campaign", PHASE_CAMPAIGN):
        hits: dict[tuple[float, int], CellResult] = {}
        pending = list(grid)
        bytes_read_before = bytes_written_before = 0
        if cache is not None:
            bytes_read_before = cache.bytes_read
            bytes_written_before = cache.bytes_written
            # One batched pass over the whole grid before any dispatch:
            # only the misses are planned into leases / submitted.
            with optional_span(tracer, "cache lookup", PHASE_CACHE):
                hits = cache.load_many(spec, grid)
            pending = [cell for cell in grid if cell not in hits]

        merge = _GridMerge(spec, grid, output_dir=output_dir, cache=cache)
        for delta, seed in grid:
            hit = hits.get((delta, seed))
            if hit is not None:
                if reporter is not None:
                    reporter.cell_cached(cell_key(delta, seed),
                                         saved_seconds=hit.wall_seconds)
                merge.add(hit, cached=True)

        leases = plan_leases(pending, workers, spec.mode)
        dispatch_stats: Dict[str, Any] = {
            "pool": "serial", "workers": workers, "leases": len(leases),
            "batch_size": len(leases[0]) if leases else 0,
            "replay_hits": 0, "replay_misses": 0,
        }
        warm_pool: Optional[WarmWorkerPool] = None
        if workers == 1 or not leases:
            served = serve_leases(spec, leases, spans=tracer is not None)
        else:
            warm_pool = WarmWorkerPool(workers)
            served = warm_pool.run_leases(spec, leases,
                                          spans=tracer is not None)
        try:
            for index, cells, info in served:
                dispatch_stats["replay_hits"] += info["replay_hits"]
                dispatch_stats["replay_misses"] += info["replay_misses"]
                worker_records.extend(info["spans"])
                with optional_span(tracer, f"lease {index} collect",
                                   PHASE_LEASE):
                    for cell in cells:
                        if reporter is not None:
                            reporter.cell_done(
                                cell_key(cell.delta, cell.seed),
                                cell.wall_seconds)
                        merge.add(cell)
        finally:
            # One pool per campaign, closed on error too: worker state is
            # unknown after a failed lease.
            if warm_pool is not None:
                warm_pool.close()
        if warm_pool is not None:
            dispatch_stats.update(pool="warm", salt=warm_pool.salt)

        merge.require_complete()
        results = merge.results

        cache_stats: Optional[Dict[str, Any]] = None
        if cache is not None:
            cache_stats = {
                "directory": str(cache.directory),
                "refresh": cache.refresh,
                "hits": len(hits),
                "misses": len(grid) - len(hits),
                "bytes_read": cache.bytes_read - bytes_read_before,
                "bytes_written": cache.bytes_written - bytes_written_before,
                "saved_cell_seconds": sum(
                    cell.wall_seconds for cell in hits.values()),
                "cells": {cell_key(delta, seed):
                          "hit" if (delta, seed) in hits else "miss"
                          for delta, seed in grid},
            }

        with optional_span(tracer, "merge", PHASE_MERGE):
            # Per-cell folding (CSV writes, cache stores) already
            # streamed in grid order as leases completed; what is left is
            # the cross-seed aggregation and the manifest.
            cell_wall = merge.cell_wall
            metrics_by_cell = {(cell.delta, cell.seed): cell.metrics
                               for cell in results}
            summaries = {
                delta: replicate({seed: metrics_by_cell[(delta, seed)]
                                  for seed in spec.seeds}, spec.seeds)
                for delta in spec.deltas
            }

            result = CampaignResult(spec=spec, traces=merge.traces,
                                    summaries=summaries,
                                    queue_stats=merge.queue_stats,
                                    cell_wall_seconds=cell_wall,
                                    workers=workers,
                                    cache_stats=cache_stats,
                                    dispatch_stats=dispatch_stats)
            if output_dir:
                # The manifest records exactly the files this campaign
                # wrote — never a directory listing, which would pick up
                # leftovers from earlier runs — and strips output_dir from
                # the config so two runs of the same spec into different
                # directories stay byte-identical.
                write_manifest(
                    output_dir / "manifest.json",
                    config=dataclasses.replace(spec, output_dir=None),
                    metrics={"cells": merge.cell_metrics},
                    extra={"queues": {cell_key(d, s): stats
                                      for (d, s), stats
                                      in merge.queue_stats.items()},
                           "traces": sorted(merge.written)})

    if reporter is not None:
        reporter.finish()

    # Span post-processing happens after the campaign span closes so the
    # root span itself lands in the merged log.  All of it is telemetry:
    # span files and the timing.json summary, never the manifest.
    span_summary: Optional[Dict[str, Any]] = None
    if span_dir is not None and tracer is not None:
        merged = merge_spans(list(tracer.records) + worker_records,
                             grid_keys)
        write_spans_jsonl(merged, span_dir / MERGED_SPAN_FILE)
        write_chrome_trace(span_dir / CHROME_SPAN_FILE, spans=merged)
        span_summary = summarize_spans(merged)

    if output_dir:
        write_timing(output_dir / "timing.json", workers=workers,
                     cell_wall_seconds=cell_wall, cache=cache_stats,
                     spans=span_summary, dispatch=dispatch_stats)
    return result
