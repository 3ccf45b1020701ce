"""repro.obs: zero-perturbation observability for the simulator.

Five parts, all passive observers of the substrate:

* **Kernel tracing** (:mod:`repro.obs.tracer`) — every fired event with its
  simulated time, label, priority, and wall-clock cost, plus per-label
  profiles for hot-path hunting, kept in a bounded ring buffer.
* **Metrics registry** (:mod:`repro.obs.registry`) — named counters and
  gauges pulled from the components' existing counters and occupancy
  integrals, snapshotted into one nested dict per run.
* **Packet-lifecycle tracing** (:mod:`repro.obs.lifecycle`) — per-packet hop
  records (created / enqueued / dropped / tx / delivered, with queue
  occupancy) so any probe's full path can be reconstructed and joined
  against its :class:`~repro.netdyn.trace.ProbeTrace` row.
* **Exporters and manifests** (:mod:`repro.obs.export`,
  :mod:`repro.obs.manifest`) — JSONL, Chrome ``trace_event``, and the run
  manifest written next to campaign outputs.  Every format is plain JSON
  and is read back with :mod:`json`; no reader for them ships here.
* **Campaign telemetry** (:mod:`repro.obs.spans`,
  :mod:`repro.obs.progress`, :mod:`repro.obs.bench`) — cross-process
  wall-clock spans merged into one flame graph, a live progress line for
  ``repro-campaign``, and schema-versioned ``BENCH_*.json`` reports with
  regression comparison.

The governing invariant (enforced by ``tests/obs/test_determinism.py``):
with observability disabled the hot path is untouched, and enabling it
never changes a simulated timestamp — same seed ⇒ bit-identical
``ProbeTrace`` with tracing on and off.

Quick start::

    from repro import build_inria_umd, run_probe_experiment
    from repro.obs import Observability

    scenario = build_inria_umd(seed=1)
    obs = Observability.full(scenario.sim, scenario.network)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=200)
    metrics = obs.snapshot()              # nested dict of every counter
    obs.kernel.hot_labels(5)              # most expensive event labels
    obs.save("out/")                      # events.jsonl, hops.jsonl, ...

For a configured experiment,
``repro.experiments.runner.run_observed_experiment(config, trace=True)``
builds the scenario, attaches :meth:`Observability.full`, and probes it;
``trace=False`` attaches :meth:`Observability.metrics_only` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.bench import (
    build_report,
    compare_reports,
    format_comparison,
    read_report,
    write_report,
)
from repro.obs.export import (
    write_chrome_trace,
    write_events_jsonl,
    write_hops_jsonl,
    write_profiles_json,
    write_spans_jsonl,
)
from repro.obs.lifecycle import HopRecord, PacketLifecycleTracer, probe_uids
from repro.obs.manifest import (
    build_manifest,
    write_manifest,
    write_timing,
)
from repro.obs.progress import ProgressReporter, resolve_progress
from repro.obs.registry import (
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
    instrument_network,
)
from repro.obs.spans import (
    SpanRecord,
    SpanTracer,
    merge_spans,
    summarize_spans,
)
from repro.obs.tracer import EventRecord, KernelTracer, LabelProfile

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.net.routing import Network
    from repro.sim.kernel import Simulator

__all__ = [
    "CounterMetric",
    "EventRecord",
    "GaugeMetric",
    "HopRecord",
    "KernelTracer",
    "LabelProfile",
    "MetricsRegistry",
    "Observability",
    "PacketLifecycleTracer",
    "ProgressReporter",
    "SpanRecord",
    "SpanTracer",
    "build_manifest",
    "build_report",
    "compare_reports",
    "format_comparison",
    "instrument_network",
    "merge_spans",
    "probe_uids",
    "read_report",
    "resolve_progress",
    "summarize_spans",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_hops_jsonl",
    "write_manifest",
    "write_profiles_json",
    "write_report",
    "write_spans_jsonl",
    "write_timing",
]


@dataclass
class Observability:
    """One run's observability bundle: tracer + lifecycle + registry.

    Build with :meth:`full` (everything on, the kernel tracer keeping its
    bounded ring), :meth:`metrics_only` (registry only — adds nothing
    to the hot path), or assemble the three parts by hand.  ``kernel``
    and ``lifecycle`` stay ``None`` when their collector is disabled.
    """

    registry: MetricsRegistry
    kernel: Optional[KernelTracer] = None
    lifecycle: Optional[PacketLifecycleTracer] = None

    @classmethod
    def full(cls, sim: "Simulator", network: "Network") -> "Observability":
        """Attach every collector to a built simulator + network."""
        kernel = KernelTracer()
        sim.attach_observer(kernel)
        lifecycle = PacketLifecycleTracer(network)
        registry = MetricsRegistry()
        instrument_network(registry, network)
        return cls(registry=registry, kernel=kernel, lifecycle=lifecycle)

    @classmethod
    def metrics_only(cls, network: "Network") -> "Observability":
        """Registry-only bundle: pull-based, zero hot-path cost."""
        registry = MetricsRegistry()
        instrument_network(registry, network)
        return cls(registry=registry)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The registry's nested metrics dict."""
        return self.registry.snapshot()

    def close(self, sim: Optional["Simulator"] = None) -> None:
        """Detach every attached collector (records stay available)."""
        if self.lifecycle is not None:
            self.lifecycle.close()
        if sim is not None and self.kernel is not None \
                and sim.observer is self.kernel:
            sim.detach_observer()

    def save(self, directory: Union[str, Path]) -> List[Path]:
        """Write every collected artifact into ``directory``.

        Produces (when the matching collector is enabled)
        ``events.jsonl``, ``profiles.json``, ``hops.jsonl``, and
        ``trace.json`` (Chrome trace_event).  Returns the written paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        if self.kernel is not None:
            events_path = directory / "events.jsonl"
            write_events_jsonl(self.kernel.records, events_path)
            written.append(events_path)
            profiles_path = directory / "profiles.json"
            write_profiles_json(self.kernel, profiles_path)
            written.append(profiles_path)
        if self.lifecycle is not None:
            hops_path = directory / "hops.jsonl"
            write_hops_jsonl(self.lifecycle.records, hops_path)
            written.append(hops_path)
        if self.kernel is not None or self.lifecycle is not None:
            chrome_path = directory / "trace.json"
            write_chrome_trace(
                chrome_path,
                events=self.kernel.records if self.kernel else None,
                hops=self.lifecycle.records if self.lifecycle else None)
            written.append(chrome_path)
        return written
