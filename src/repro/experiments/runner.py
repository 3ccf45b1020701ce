"""Run a configured probe experiment and return its trace.

:func:`execute_experiment` is the one place that picks the engine for a
configuration (event, analytic, or analytic with event fallback) and
returns the full :class:`ExperimentResult`; :func:`run_experiment` is
its trace.  An event run probes a copy of a post-warm-up snapshot
(:func:`warm_scenario`), so the runs of one scenario and seed simulate
their shared warm-up once per process.  :func:`run_observed_experiment`
runs the same measurement with the :mod:`repro.obs` collectors attached —
kernel event tracing, packet-lifecycle tracing, and a metrics registry
covering the whole network plus the probe session — without changing any
simulated timestamp (same seed ⇒ identical trace either way).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.errors import ConfigurationError
from repro.experiments.config import SCENARIO_BUILDERS, ExperimentConfig
from repro.net.packet import next_packet_uid, reset_packet_uids
from repro.net.queue import queue_summary
from repro.net.routing import Network
from repro.netdyn.session import run_probe_experiment
from repro.netdyn.source import FirstProbeSlot
from repro.netdyn.trace import ProbeTrace
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PHASE_SETUP, PHASE_SIM, SpanTracer, \
    optional_span
from repro.topology.builder import PathScenario

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.experiments.fastforward import CrossReplayMemo


def build_scenario(config: ExperimentConfig) -> PathScenario:
    """Instantiate the topology named by the configuration."""
    builder = SCENARIO_BUILDERS.get(config.scenario)
    if builder is None:
        # ExperimentConfig validates on construction, but a mutated config
        # must not silently fall through to the wrong topology.
        raise ConfigurationError(f"unknown scenario {config.scenario!r}")
    return builder(seed=config.seed, **config.scenario_kwargs)


def scenario_key(config: ExperimentConfig) -> Tuple[str, str, int]:
    """Scenario, canonical kwargs, seed: what a built scenario depends on.

    The kwargs are JSON with sorted keys, so two configs that spell the
    same keywords in another order share a key.  The key lives and dies
    with its process, so it needs no code-version salt.
    """
    return (config.scenario,
            json.dumps(config.scenario_kwargs, sort_keys=True, default=repr),
            int(config.seed))


def probe_scenario(scenario: PathScenario, config: ExperimentConfig,
                   registry: Optional[MetricsRegistry] = None,
                   first_probe: Optional[FirstProbeSlot] = None,
                   ) -> ProbeTrace:
    """Run the configured probe train against an already-built scenario.

    The single probing call every driver goes through — same probe
    parameters and trace metadata whether the cell runs bare
    (:func:`run_experiment`), observed (:func:`run_observed_experiment`),
    or phase-by-phase inside a campaign worker — so the drivers cannot
    drift apart.  The caller is responsible for having started the
    background traffic; a scenario restored by :func:`warm_scenario`
    comes with the ``first_probe`` slot its first send binds into.
    """
    return run_probe_experiment(
        scenario.network, scenario.source, scenario.echo,
        delta=config.delta, count=config.count, start_at=config.warmup,
        meta={
            "scenario": config.scenario,
            "seed": config.seed,
            "mu_bps": scenario.bottleneck_rate_bps,
        },
        registry=registry, first_probe=first_probe)


class WarmTemplate(NamedTuple):
    """A scenario simulated to the end of its warm-up, never probed.

    ``key`` is :func:`scenario_key` plus the warm-up length;
    ``first_probe`` is the slot reserved in ``scenario``'s heap at the
    end of the warm-up; ``next_uid`` is the packet uid the probe phase
    starts from.
    """

    key: Tuple[Tuple[str, str, int], float]
    scenario: PathScenario
    first_probe: FirstProbeSlot
    next_uid: int


def take_warm_template(config: ExperimentConfig) -> WarmTemplate:
    """Build, start and warm up the configured scenario.

    The first-probe slot is reserved right after the traffic starts,
    where :meth:`~repro.netdyn.source.SourceAgent.start` schedules the
    first probe in a run built from scratch, so it holds that event's
    ``(time, priority, sequence)`` key.  The kernel then runs to the
    last double before the warm-up ends: every event a fresh run
    executes before its first probe has run, and none at or after it.
    """
    scenario = build_scenario(config)
    scenario.start_traffic(at=0.0)
    first_probe = FirstProbeSlot(scenario.sim, config.warmup)
    scenario.sim.run(until=math.nextafter(config.warmup, -math.inf))
    return WarmTemplate((scenario_key(config), float(config.warmup)),
                        scenario, first_probe, next_packet_uid())


#: The template :func:`warm_scenario` last used.  One is enough: the
#: figure drivers run their δ values of one scenario and seed back to
#: back, and :func:`~repro.experiments.pool.plan_leases` orders a
#: campaign's event cells seed-major.  A run whose key differs from the
#: held one (a one-shot run, or a process's first cell of a seed) pays
#: the build and warm-up a fresh run pays, plus one deep copy.
_held_template: Optional[WarmTemplate] = None


def warm_scenario(config: ExperimentConfig,
                  ) -> Tuple[PathScenario, FirstProbeSlot]:
    """A started scenario at the end of its warm-up, and its first slot.

    A ``copy.deepcopy`` of this process's template for the config's
    scenario, kwargs, seed and warm-up (:func:`take_warm_template` on a
    miss), so every run gets its own scenario; the packet-uid counter is
    restarted where the template left it.  Probing the copy
    (:func:`probe_scenario` with the slot) executes the same events, in
    the same order, as probing a fresh build: trace, queue stats and
    ``events_executed`` come out identical.  The kernel refuses to copy a
    heap that holds a plain function or closure (a copy would share it),
    and a template that cannot be copied is never held.
    """
    global _held_template
    key = (scenario_key(config), float(config.warmup))
    template = _held_template
    if template is None or template.key != key:
        template = take_warm_template(config)
    scenario, first_probe = copy.deepcopy(
        (template.scenario, template.first_probe))
    _held_template = template
    reset_packet_uids(template.next_uid)
    return scenario, first_probe


@dataclass
class ExperimentResult:
    """Everything one experiment produces (see :func:`execute_experiment`)."""

    trace: ProbeTrace
    #: Queue label -> drop/occupancy stats: every active queue of an
    #: event run (:func:`collect_queue_stats`), the two bottlenecks of an
    #: analytic one.
    queue_stats: Dict[str, Dict[str, float]]
    #: ``"analytic"`` or ``"event"`` (the engine actually executed).
    mode_used: str
    #: Why the analytic engine declined, when it did (sorted, stable).
    fallback_reasons: List[str]
    #: The built scenario.  After an analytic run it was never
    #: event-driven: its queues carry no counters (``queue_stats``
    #: replaces them).
    scenario: PathScenario


def collect_queue_stats(network: Network) -> Dict[str, Dict[str, float]]:
    """Drop counts and time-weighted occupancy for every active queue.

    Queues that never saw an arrival are skipped.  Keys are
    ``"<node>-><peer>"`` interface labels; values are plain floats so the
    result drops straight into a JSON manifest.
    """
    stats: Dict[str, Dict[str, float]] = {}
    for node_name in sorted(network.nodes):
        node = network.nodes[node_name]
        for peer_name in sorted(node.interfaces):
            queue = node.interfaces[peer_name].queue
            if queue.arrivals == 0:
                continue
            stats[f"{node_name}->{peer_name}"] = queue_summary(
                queue.arrivals, queue.drops, queue.departures,
                queue.mean_packets(), queue.max_packets(),
                queue.mean_bytes())
    return stats


def event_result(scenario: PathScenario, first_probe: FirstProbeSlot,
                 config: ExperimentConfig,
                 fallback_reasons: Sequence[str] = (),
                 ) -> ExperimentResult:
    """Probe a :func:`warm_scenario` copy on the event engine.

    The one event-mode body: :func:`execute_experiment` runs it for
    ``mode="event"``, and the analytic engine runs it as its fallback,
    passing the ineligibility reasons; both hand it what
    :func:`warm_scenario` returned.  A fallback trace records
    ``mode``/``fallback`` in its metadata; a plain event trace carries
    neither key (its metadata is golden).
    """
    trace = probe_scenario(scenario, config, first_probe=first_probe)
    reasons = list(fallback_reasons)
    if reasons:
        trace.meta["mode"] = "event"
        trace.meta["fallback"] = reasons
    return ExperimentResult(
        trace=trace, queue_stats=collect_queue_stats(scenario.network),
        mode_used="event", fallback_reasons=reasons, scenario=scenario)


def execute_experiment(config: ExperimentConfig,
                       memo: Optional["CrossReplayMemo"] = None,
                       replay_horizon: Optional[float] = None,
                       tracer: Optional[SpanTracer] = None,
                       ) -> ExperimentResult:
    """Run one experiment on the engine its ``mode`` names.

    The single dispatch point: ``mode="event"`` restores the warmed-up
    scenario (:func:`warm_scenario`, the ``setup`` span) and probes it
    (``sim``);
    ``mode="analytic"`` runs
    :func:`~repro.experiments.fastforward.run_fastforward_experiment`
    under one ``sim`` span, which itself falls back to
    :func:`event_result` when the scenario is not aggregatable.
    ``memo`` and ``replay_horizon`` reach the analytic engine only (a
    shared cross-traffic replay memo, and the horizon to build a missing
    replay out to); ``tracer`` records the phase spans.  None of them
    changes the result.
    """
    if config.mode == "analytic":
        # Imported here so event-only callers never load the analytic
        # engine.
        from repro.experiments.fastforward import run_fastforward_experiment
        with optional_span(tracer, "sim", PHASE_SIM):
            return run_fastforward_experiment(
                config, memo=memo, tracer=tracer,
                replay_horizon=replay_horizon)
    with optional_span(tracer, "setup", PHASE_SETUP):
        scenario, first_probe = warm_scenario(config)
    with optional_span(tracer, "sim", PHASE_SIM):
        return event_result(scenario, first_probe, config)


def run_experiment(config: ExperimentConfig) -> ProbeTrace:
    """Build the scenario, warm up the traffic, probe, return the trace.

    The trace of :func:`execute_experiment`: ``config.mode`` picks the
    event or the analytic engine.
    """
    return execute_experiment(config).trace


def run_observed_experiment(
        config: ExperimentConfig, trace: bool = False,
) -> Tuple[ProbeTrace, PathScenario, Observability]:
    """Run one experiment with the observability collectors attached.

    The metrics registry (network-wide counters/gauges plus the probe
    session's counters) is always on — it is pull-based and free.  With
    ``trace`` set the collectors are :meth:`Observability.full
    <repro.obs.Observability.full>`'s, adding kernel event tracing and
    packet-lifecycle tracing, which record per-event/per-hop history;
    without it they are :meth:`~repro.obs.Observability.metrics_only`'s.
    The run builds its scenario from scratch, never from a
    :func:`warm_scenario` copy, so the collectors record the warm-up too.
    """
    if config.mode == "analytic":
        raise ConfigurationError(
            "observability collectors record event-kernel activity; "
            "analytic mode runs no events (use mode='event')")
    scenario = build_scenario(config)
    obs = Observability.full(scenario.sim, scenario.network) if trace \
        else Observability.metrics_only(scenario.network)

    scenario.start_traffic(at=0.0)
    probe_trace = probe_scenario(scenario, config, registry=obs.registry)
    obs.close(sim=scenario.sim)
    return probe_trace, scenario, obs
