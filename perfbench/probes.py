"""Outside-in layer probes: timers and counters wrapped around public calls.

The benchmark never edits the program.  :func:`install` replaces every
binding of a small set of public functions and methods (in every loaded
``repro`` module, so ``from x import f`` call sites are covered too) with
a wrapper that records one span per call into a :class:`Recorder`.  Spans
live in memory — name, start, end, parent, workload, process — and are
written out by the caller when the run ends.

Pool workers are forked from a process that already holds the wrappers,
so their calls are recorded too; each worker ships its spans back inside
the lease payload (see ``_serve_lease`` below) and the parent absorbs them
when it unpacks the lease.

:func:`layer_metrics` turns a span list into the per-layer metrics named
in ``BENCHMARK.json``; :func:`zero_call_violations` is the guard that
fails a traced run when a wrapped function a workload must exercise
recorded no call at all (a refactor that bypasses a wrapper must not
silently zero a layer metric).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span names of the wrapped analysis entry points (``analysis.s``).
ANALYSIS_FUNCTIONS = {
    "repro.analysis.loss": ["loss_stats"],
    "repro.analysis.timeseries": ["summarize"],
    "repro.analysis.phase": ["phase_points", "fit_compression_line"],
    "repro.analysis.workload": ["workload_distribution", "find_peaks",
                                "classify_peaks"],
}
ANALYSIS_SPANS = {f"analysis.{name}"
                  for names in ANALYSIS_FUNCTIONS.values() for name in names}

#: Wrapped calls each workload must exercise at least once in a traced
#: run.  ``queueing.FluidQueue`` is deliberately absent: a walk-free
#: bottleneck is a legitimate optimisation, not a bypassed wrapper.
REQUIRED_CALLS = {
    "paper_figures": [
        "runner.build_scenario", "runner.probe_scenario",
        "cache.cache_salt", "analysis.loss_stats", "analysis.phase_points",
        "analysis.fit_compression_line", "analysis.workload_distribution",
        "analysis.find_peaks", "analysis.classify_peaks",
    ],
    "campaign_analytic": [
        "runner.build_scenario", "fastforward.run_fastforward_experiment",
        "fastforward.build_cross_replay", "cache.cache_salt",
        "cache.CampaignCache.store", "cache.CampaignCache.load_many",
        "trace.ProbeTrace.save_csv", "campaign.write_manifest",
        "analysis.loss_stats", "analysis.summarize",
    ],
    "campaign_pool": [
        "runner.build_scenario", "fastforward.run_fastforward_experiment",
        "fastforward.build_cross_replay", "cache.cache_salt",
        "pool.WarmWorkerPool.start", "pool.unpack_lease",
        "trace.ProbeTrace.save_csv", "campaign.write_manifest",
        "analysis.loss_stats", "analysis.summarize",
    ],
}

#: Layers whose self times should account for a traced operation's wall
#: time (``coverage_frac``).  For ``campaign_pool`` only the benchmark
#: process's own layers count: the rest of its wall time is waiting on
#: the workers.
COVERAGE_SPANS = {
    "paper_figures": {"runner.probe_scenario"} | ANALYSIS_SPANS,
    "campaign_analytic": {
        "runner.build_scenario", "fastforward.build_cross_replay",
        "fastforward.run_fastforward_experiment",
        "cache.CampaignCache.store", "trace.ProbeTrace.save_csv"},
    "campaign_pool": {
        "pool.WarmWorkerPool.start", "pool.unpack_lease",
        "trace.ProbeTrace.save_csv", "campaign.write_manifest"},
}

#: Payload key worker spans travel under, from ``_serve_lease`` to
#: ``unpack_lease``.
WORKER_SPANS_KEY = "perfbench_spans"


class Recorder:
    """In-memory span store for one benchmark process (and its workers)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: While False the wrappers call straight through, recording
        #: nothing (an untraced pass inside a traced process).
        self.enabled = True
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._pid = os.getpid()
        self._count = 0

    def _new_id(self) -> str:
        self._count += 1
        return f"{self._pid}:{self._count}"

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; the yielded dict becomes the attrs."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "workload": self.workload,
                "pid": self._pid, "attrs": attrs})

    def drain(self) -> List[Dict[str, Any]]:
        records, self.records = self.records, []
        return records

    def absorb(self, records: List[Dict[str, Any]]) -> None:
        self.records.extend(records)

    def enter_process(self) -> None:
        """In a forked worker, forget the parent's spans and open stack."""
        if self._pid != os.getpid():
            self.records = []
            self._stack = []
            self._pid = os.getpid()
            self._count = 0


def _wrap(function: Callable, name: str, recorder: Recorder,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        with recorder.span(name) as attrs:
            result = function(*args, **kwargs)
            if after is not None:
                after(attrs, args, result, state)
        return result
    wrapper.__perfbench_original__ = function  # type: ignore[attr-defined]
    return wrapper


def _rebind(original: Any, replacement: Any) -> int:
    """Point every ``repro`` module binding of ``original`` elsewhere."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class Probes:
    """The installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._functions: List[tuple] = []
        self._methods: List[tuple] = []

    def function(self, module: str, attr: str, name: str,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(original, name, self.recorder, before, after)
        _rebind(original, wrapper)
        self._functions.append((original, wrapper))

    def method(self, owner: Any, attr: str, name: str,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> None:
        self.replace(owner, attr, _wrap(vars(owner)[attr], name,
                                        self.recorder, before, after))

    def replace(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` (a class or module) until :meth:`uninstall`."""
        self._methods.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for original, wrapper in self._functions:
            _rebind(wrapper, original)
        for owner, attr, original in self._methods:
            setattr(owner, attr, original)
        self._functions, self._methods = [], []


def install(recorder: Recorder) -> Probes:
    """Wrap every measured layer boundary; modules must be imported."""
    import importlib
    for module in ("repro.experiments.campaign",
                   "repro.experiments.fastforward",
                   "repro.experiments.figures", *ANALYSIS_FUNCTIONS):
        importlib.import_module(module)
    from repro.experiments import cache, pool
    from repro.netdyn.trace import ProbeTrace
    from repro.queueing.fastforward import FluidQueue

    probes = Probes(recorder)
    probes.function("repro.experiments.runner", "build_scenario",
                    "runner.build_scenario")

    def events(attrs, args, result, state):
        attrs["events"] = int(args[0].sim.events_executed)
    probes.function("repro.experiments.runner", "probe_scenario",
                    "runner.probe_scenario", after=events)

    def mode(attrs, args, result, state):
        attrs["mode"] = result.mode_used
        attrs["fallback"] = list(result.fallback_reasons)
    probes.function("repro.experiments.fastforward",
                    "run_fastforward_experiment",
                    "fastforward.run_fastforward_experiment", after=mode)
    probes.function("repro.experiments.fastforward", "build_cross_replay",
                    "fastforward.build_cross_replay")

    # One construction per per-packet bottleneck walk.
    probes.method(FluidQueue, "__init__", "queueing.FluidQueue")

    probes.function("repro.experiments.cache", "cache_salt",
                    "cache.cache_salt")

    def stored(attrs, args, result, state):
        attrs["bytes"] = args[0].bytes_written - state
    probes.method(cache.CampaignCache, "store", "cache.CampaignCache.store",
                  before=lambda args, kwargs: args[0].bytes_written,
                  after=stored)

    def loaded(attrs, args, result, state):
        attrs["bytes"] = args[0].bytes_read - state
        attrs["hits"] = len(result)
        attrs["cells"] = len(args[2])
    probes.method(cache.CampaignCache, "load_many",
                  "cache.CampaignCache.load_many",
                  before=lambda args, kwargs: args[0].bytes_read,
                  after=loaded)

    probes.method(ProbeTrace, "save_csv", "trace.ProbeTrace.save_csv")
    probes.method(pool.WarmWorkerPool, "start", "pool.WarmWorkerPool.start")

    def absorb_worker_spans(args, kwargs):
        recorder.absorb(args[0].pop(WORKER_SPANS_KEY, []))

    def transport(attrs, args, result, state):
        attrs["transport"] = result[1]["transport"]
        attrs["shm_bytes"] = int(result[1]["shm_bytes"])
    probes.function("repro.experiments.pool", "unpack_lease",
                    "pool.unpack_lease", before=absorb_worker_spans,
                    after=transport)

    serve = pool._serve_lease

    @functools.wraps(serve)
    def serve_and_ship(request):
        # Runs in a forked worker: no parent span (still open at fork
        # time) may become a parent here.
        recorder.enter_process()
        payload = serve(request)
        payload[WORKER_SPANS_KEY] = recorder.drain()
        return payload
    probes.replace(pool, "_serve_lease", serve_and_ship)

    probes.function("repro.experiments.campaign", "write_manifest",
                    "campaign.write_manifest")
    for module, names in ANALYSIS_FUNCTIONS.items():
        for name in names:
            probes.function(module, name, f"analysis.{name}")
    return probes


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _duration(record: Dict[str, Any]) -> float:
    return record["end"] - record["start"]


def self_times(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {record["id"]: _duration(record) for record in records}
    for record in records:
        parent = record["parent"]
        if parent in own:
            own[parent] -= _duration(record)
    return own


def descendants(records: List[Dict[str, Any]],
                root_id: str) -> List[Dict[str, Any]]:
    """Every span below ``root_id`` (same process), root excluded."""
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    found, frontier = [], [root_id]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child["id"])
    return found


def zero_call_violations(workload: str,
                         records: List[Dict[str, Any]]) -> List[str]:
    """Required wrapped calls that recorded nothing on ``workload``."""
    seen = {record["name"] for record in records}
    return [name for name in REQUIRED_CALLS.get(workload, [])
            if name not in seen]


def layer_metrics(records: List[Dict[str, Any]], facts: Dict[str, Any],
                  workload: str, coverage_root: str) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``facts`` carries what the spans cannot: the campaign runs' dispatch
    blocks (replay-memo hits, pool workers, summed cell wall seconds).
    ``coverage_frac`` is the summed self time of the workload's
    :data:`COVERAGE_SPANS` under the ``coverage_root`` span, as a share of
    that span's wall time.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    def calls(name: str) -> float:
        return float(len(by_name.get(name, [])))

    def seconds(name: str) -> float:
        return float(sum(_duration(r) for r in by_name.get(name, [])))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(r["attrs"].get(key, 0) for r in by_name.get(name, [])))

    own = self_times(records)
    ids = {record["id"]: record for record in records}

    def outermost_analysis(record: Dict[str, Any]) -> bool:
        parent = ids.get(record["parent"])
        while parent is not None:
            if parent["name"] in ANALYSIS_SPANS:
                return False
            parent = ids.get(parent["parent"])
        return True

    ff = by_name.get("fastforward.run_fastforward_experiment", [])
    cells = float(len(ff))
    fallback = float(sum(1 for r in ff if r["attrs"].get("mode") == "event"))
    walks = calls("queueing.FluidQueue")
    analytic = cells - fallback
    probe_s = seconds("runner.probe_scenario")
    events = attr_sum("runner.probe_scenario", "events")
    load_cells = attr_sum("cache.CampaignCache.load_many", "cells")
    leases = by_name.get("pool.unpack_lease", [])
    replay_hits = sum(d.get("replay_hits", 0) for d in facts["dispatch"])
    replay_total = replay_hits + sum(d.get("replay_misses", 0)
                                     for d in facts["dispatch"])
    pool_runs = [d for d in facts["dispatch"] if d.get("pool") == "warm"]
    utilization = 0.0
    if pool_runs and facts.get("cold_wall_s"):
        utilization = facts["cold_cell_wall_s"] / (
            pool_runs[0]["workers"] * facts["cold_wall_s"])

    root = next(r for r in records if r["name"] == coverage_root)
    attributed = sum(own[r["id"]] for r in descendants(records, root["id"])
                     if r["name"] in COVERAGE_SPANS[workload])
    coverage = attributed / _duration(root)

    return {
        "runner.build_scenario.calls": calls("runner.build_scenario"),
        "runner.build_scenario.s": seconds("runner.build_scenario"),
        "runner.probe_scenario.calls": calls("runner.probe_scenario"),
        "runner.probe_scenario.s": probe_s,
        "sim.events_executed": events,
        "sim.events_per_s": events / probe_s if probe_s > 0 else 0.0,
        "fastforward.cells": cells,
        "fastforward.fallback_cells": fallback,
        "fastforward.build_cross_replay.calls":
            calls("fastforward.build_cross_replay"),
        "fastforward.build_cross_replay.s":
            seconds("fastforward.build_cross_replay"),
        "fastforward.replay_hit_ratio":
            replay_hits / replay_total if replay_total else 0.0,
        "fastforward.bottleneck.s": float(sum(own[r["id"]] for r in ff)),
        "queueing.fluidqueue.walks": walks,
        "fastforward.certificate_ratio":
            1.0 - walks / (2.0 * analytic) if analytic else 0.0,
        "cache.cache_salt.s": seconds("cache.cache_salt"),
        "cache.store.calls": calls("cache.CampaignCache.store"),
        "cache.store.s": seconds("cache.CampaignCache.store"),
        "cache.bytes_written": attr_sum("cache.CampaignCache.store", "bytes"),
        "cache.load_many.s": seconds("cache.CampaignCache.load_many"),
        "cache.bytes_read": attr_sum("cache.CampaignCache.load_many",
                                     "bytes"),
        "cache.hit_ratio": (attr_sum("cache.CampaignCache.load_many", "hits")
                            / load_cells if load_cells else 0.0),
        "trace.save_csv.calls": calls("trace.ProbeTrace.save_csv"),
        "trace.save_csv.s": seconds("trace.ProbeTrace.save_csv"),
        "pool.start.s": seconds("pool.WarmWorkerPool.start"),
        "pool.leases": float(len(leases)),
        "pool.shm_bytes": attr_sum("pool.unpack_lease", "shm_bytes"),
        "pool.inline_leases": float(sum(
            1 for r in leases if r["attrs"].get("transport") == "inline")),
        "pool.unpack_lease.s": seconds("pool.unpack_lease"),
        "pool.utilization": utilization,
        "campaign.write_manifest.s": seconds("campaign.write_manifest"),
        "analysis.s": float(sum(
            _duration(r) for r in records
            if r["name"] in ANALYSIS_SPANS and outermost_analysis(r))),
        "coverage_frac": coverage,
    }
