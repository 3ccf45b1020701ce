"""Run a configured probe experiment and return its trace.

:func:`execute_experiment` is the one place that picks the engine for a
configuration (event, analytic, or analytic with event fallback) and
returns the full :class:`ExperimentResult`; :func:`run_experiment` is
its trace.  :func:`run_observed_experiment`
runs the same measurement with the :mod:`repro.obs` collectors attached —
kernel event tracing, packet-lifecycle tracing, and a metrics registry
covering the whole network plus the probe session — without changing any
simulated timestamp (same seed ⇒ identical trace either way).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, \
    Union

from repro.errors import ConfigurationError
from repro.experiments.config import SCENARIO_BUILDERS, ExperimentConfig
from repro.net.routing import Network
from repro.netdyn.session import run_probe_experiment
from repro.netdyn.trace import ProbeTrace
from repro.obs import MetricsRegistry, Observability
from repro.obs.spans import PHASE_SETUP, PHASE_SIM, SpanTracer, \
    optional_span
from repro.topology.inria_umd import InriaUmdScenario, build_inria_umd
from repro.topology.umd_pitt import UmdPittScenario

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.experiments.fastforward import CrossReplayMemo

Scenario = Union[InriaUmdScenario, UmdPittScenario]


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Instantiate the topology named by the configuration."""
    builder = SCENARIO_BUILDERS.get(config.scenario)
    if builder is None:
        # ExperimentConfig validates on construction, but a mutated config
        # must not silently fall through to the wrong topology.
        raise ConfigurationError(f"unknown scenario {config.scenario!r}")
    return builder(seed=config.seed, **config.scenario_kwargs)


def probe_scenario(scenario: Scenario, config: ExperimentConfig,
                   registry: Optional[MetricsRegistry] = None) -> ProbeTrace:
    """Run the configured probe train against an already-built scenario.

    The single probing call every driver goes through — same probe
    parameters and trace metadata whether the cell runs bare
    (:func:`run_experiment`), observed (:func:`run_observed_experiment`),
    or phase-by-phase inside a campaign worker — so the drivers cannot
    drift apart.  The caller is responsible for having started the
    background traffic.
    """
    return run_probe_experiment(
        scenario.network, scenario.source, scenario.echo,
        delta=config.delta, count=config.count, start_at=config.warmup,
        meta={
            "scenario": config.scenario,
            "seed": config.seed,
            "mu_bps": scenario.bottleneck_rate_bps,
        },
        registry=registry)


#: Coarse per-cell cost model for lease planning (host seconds per
#: simulated second, measured once on the reference host).  Only the
#: *relative* scale matters — it sizes lease batches, never results.
_EVENT_SECONDS_PER_SIM_SECOND = 0.07
_ANALYTIC_BASE_SECONDS = 0.010
#: Analytic cost is dominated by replaying each cross-traffic source's
#: emission draws, so the slope is per *source* simulated second
#: (calibrated on BENCH_fastforward's reference host: the default
#: 4-source inria-umd mix costs ~0.35 ms per simulated second).
_ANALYTIC_SECONDS_PER_SOURCE_SIM_SECOND = 9e-5

def _cross_source_count(config: ExperimentConfig) -> int:
    """Cross-traffic sources the configured scenario will build.

    Mirrors the builders' wiring: each direction with positive
    utilization gets an FTP source when ``bulk_fraction > 0`` and a
    Telnet source when ``bulk_fraction < 1``
    (:func:`repro.traffic.mix.attach_internet_mix`).  Parameters the
    configuration omits take the builder's own defaults.
    """
    builder = SCENARIO_BUILDERS.get(config.scenario, build_inria_umd)
    defaults = inspect.signature(builder).parameters
    kwargs = config.scenario_kwargs
    bulk = kwargs.get("bulk_fraction", defaults["bulk_fraction"].default)
    per_direction = (1 if bulk > 0 else 0) + (1 if bulk < 1 else 0)
    count = 0
    for key in ("utilization_fwd", "utilization_rev"):
        if kwargs.get(key, defaults[key].default) > 0:
            count += per_direction
    return count


def estimate_cell_seconds(config: ExperimentConfig) -> float:
    """A-priori wall-cost estimate of one campaign cell, host seconds.

    Pure arithmetic on the configuration (no clocks, no trial runs):
    event-mode cost scales with the simulated horizon (warm-up plus probe
    train); analytic cells pay a small fixed setup plus a much shallower
    slope that scales with how many cross-traffic sources the scenario
    replays — a lightly loaded one-direction scenario costs half the
    default mix.  The campaign dispatcher uses this to auto-tune lease
    batch sizes — a wrong estimate costs balance, never correctness.
    """
    horizon = config.warmup + config.duration
    if config.mode == "analytic":
        return (_ANALYTIC_BASE_SECONDS
                + _ANALYTIC_SECONDS_PER_SOURCE_SIM_SECOND
                * _cross_source_count(config) * horizon)
    return max(1e-3, _EVENT_SECONDS_PER_SIM_SECOND * horizon)


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
    scenario: Scenario


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
            stats[f"{node_name}->{peer_name}"] = {
                "arrivals": float(queue.arrivals),
                "drops": float(queue.drops),
                "departures": float(queue.departures),
                "loss_fraction": queue.loss_fraction,
                "occupancy_mean_pkts": queue.occupancy_packets.mean(),
                "occupancy_max_pkts": queue.occupancy_packets.maximum(),
                "occupancy_mean_bytes": queue.occupancy_bytes.mean(),
            }
    return stats


def event_result(scenario: Scenario, config: ExperimentConfig,
                 fallback_reasons: Sequence[str] = ()) -> ExperimentResult:
    """Probe an already-started scenario on the event engine.

    The one event-mode body: :func:`execute_experiment` runs it for
    ``mode="event"``, and the analytic engine runs it as its fallback,
    passing the ineligibility reasons.  A fallback trace records
    ``mode``/``fallback`` in its metadata; a plain event trace carries
    neither key (its metadata is golden).
    """
    trace = probe_scenario(scenario, config)
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

    The single dispatch point: ``mode="event"`` builds the scenario,
    starts its traffic (the ``setup`` span) and probes it (``sim``);
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
        scenario = build_scenario(config)
        scenario.start_traffic(at=0.0)
    with optional_span(tracer, "sim", PHASE_SIM):
        return event_result(scenario, config)


def run_experiment(config: ExperimentConfig) -> ProbeTrace:
    """Build the scenario, warm up the traffic, probe, return the trace.

    The trace of :func:`execute_experiment`: ``config.mode`` picks the
    event or the analytic engine.
    """
    return execute_experiment(config).trace


def run_observed_experiment(config: ExperimentConfig, trace: bool = False,
                            ) -> Tuple[ProbeTrace, Scenario, Observability]:
    """Run one experiment with the observability collectors attached.

    The metrics registry (network-wide counters/gauges plus the probe
    session's counters) is always on — it is pull-based and free.  With
    ``trace`` set the collectors are :meth:`Observability.full
    <repro.obs.Observability.full>`'s, adding kernel event tracing and
    packet-lifecycle tracing, which record per-event/per-hop history;
    without it they are :meth:`~repro.obs.Observability.metrics_only`'s.
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
