"""Equivalence and eligibility tests for the analytic execution mode.

Event mode is the golden reference (pinned byte-for-byte by
``test_golden_trace.py``).  The analytic fast-forward must match it
*bit for bit* on every eligible scenario: the engine replays the
identical RNG draw sequence and per-packet arrival order, so any
divergence — one flipped loss, one shifted tick — is a bug here, never
a re-baseline.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import fastforward as ff
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_scenario,
    execute_experiment,
    run_experiment,
    run_observed_experiment,
)
from repro.net.clocks import SkewedClock
from repro.net.faults import PeriodicStallFault, RandomDropFault
from repro.net.tap import PacketTap
from repro.netdyn.trace import LOST
from repro.traffic.poisson import PoissonSource


def config_for(scenario, delta, duration, seed=3, mode="event"):
    return ExperimentConfig(delta=delta, duration=duration, seed=seed,
                            scenario=scenario, mode=mode)


def probe_hops(built, start, end):
    """The interfaces a probe crosses from ``start`` to ``end``."""
    path = built.network.path(start, end)
    return [built.network.node(a).interface_to(b)
            for a, b in zip(path[:-1], path[1:])]


def forward_access(built):
    """The access link the forward mix enters the bottleneck through."""
    source = built.mix_fwd.sources[0]
    return probe_hops(built, source.host.name, source.destination)[0]


def hook_queue(built):
    probe_hops(built, built.source, built.echo)[0].queue.lifecycle = object()


def hook_node(built):
    path = built.network.path(built.source, built.echo)
    built.network.node(path[2]).lifecycle = object()


def hook_two_nodes(built):
    # One reason per probe path: each direction reports the first hooked
    # node it meets.
    path = built.network.path(built.source, built.echo)
    built.network.node(path[1]).lifecycle = object()
    built.network.node(path[3]).lifecycle = object()


def hook_echo(built):
    built.network.node(built.echo).lifecycle = object()


def share_generator(built):
    rng = built.sim.streams.get("test.shared")
    hops = probe_hops(built, built.source, built.echo)
    hops[0].add_egress_fault(RandomDropFault(0.01, rng))
    hops[-1].add_ingress_fault(RandomDropFault(0.01, rng))


def add_poisson_source(built):
    source = built.mix_fwd.sources[0]
    built.mix_fwd.sources.append(PoissonSource(
        source.host, source.destination, rate_pps=10.0,
        stream="test.poisson"))


def fault_access(built):
    forward_access(built).add_egress_fault(
        RandomDropFault(0.01, built.sim.streams.get("test.access")))


def hook_access(built):
    forward_access(built).lifecycle = object()


class TestEligibility:
    @pytest.mark.parametrize("scenario", ["inria-umd", "umd-pitt"])
    def test_calibrated_scenarios_are_eligible(self, scenario):
        built = build_scenario(config_for(scenario, 0.05, 10.0))
        assert ff.fastforward_ineligibilities(built) == []

    def test_lifecycle_hook_blocks(self):
        # Any observer on a probe-path component blocks: a bare one, and
        # a PacketTap watching the bottleneck.
        for hook in (lambda interface: setattr(interface, "lifecycle",
                                               object()),
                     PacketTap):
            built = build_scenario(config_for("inria-umd", 0.05, 10.0))
            hook(built.bottleneck_fwd)
            reasons = ff.fastforward_ineligibilities(built)
            assert any("lifecycle hook on interface" in reason
                       for reason in reasons)

    def test_stall_fault_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        path = built.network.path(built.source, built.echo)
        first = built.network.node(path[0]).interface_to(path[1])
        first.add_egress_fault(PeriodicStallFault(period=90.0, stall=1.0))
        reasons = ff.fastforward_ineligibilities(built)
        assert any("PeriodicStallFault" in reason for reason in reasons)

    def test_skewed_clock_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        built.network.host(built.source).clock = SkewedClock(
            built.sim, offset=1.0)
        reasons = ff.fastforward_ineligibilities(built)
        assert any("clock" in reason for reason in reasons)

    @pytest.mark.parametrize("perturb, expected", [
        (hook_queue, ["lifecycle hook on queue of "
                      "tom.inria.fr->t8-gw.inria.fr"]),
        (hook_node, ["lifecycle hook on node sophia-gw.atlantic.fr"]),
        (hook_two_nodes, ["lifecycle hook on node icm-sophia.icp.net",
                          "lifecycle hook on node t8-gw.inria.fr"]),
        (hook_echo, ["lifecycle hook on node mimsy.umd.edu"]),
        (share_generator, ["faults share a random generator "
                           "(crossing order not replayable)"]),
        (add_poisson_source, ["forward mix has a non-open-loop source "
                              "PoissonSource"]),
        (fault_access, ["fault on mix interface "
                        "cross-fr.icp.net->icm-sophia.icp.net"]),
        (hook_access, ["lifecycle hook on mix interface "
                       "cross-fr.icp.net->icm-sophia.icp.net"]),
    ], ids=lambda value: getattr(value, "__name__", ""))
    def test_exact_reasons(self, perturb, expected):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        perturb(built)
        assert ff.fastforward_ineligibilities(built) == expected

    def test_fault_on_bottleneck_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        built.bottleneck_rev.add_egress_fault(
            RandomDropFault(0.01, built.sim.streams.get("test.bottleneck")))
        reasons = ff.fastforward_ineligibilities(built)
        assert any("bottleneck" in reason for reason in reasons)


class TestExactEquivalence:
    """Analytic == event, bit for bit — including under real losses."""

    @pytest.mark.parametrize("scenario,delta,duration", [
        ("inria-umd", 0.05, 12.0),
        ("inria-umd", 0.5, 30.0),
        # Long enough for the bottleneck to overflow: the per-packet
        # FluidQueue walk must reproduce every drop decision, not just
        # the no-drop certificate path.
        ("inria-umd", 0.05, 60.0),
        ("umd-pitt", 0.02, 4.0),
    ])
    def test_bit_identical_traces(self, scenario, delta, duration):
        event = run_experiment(config_for(scenario, delta, duration))
        result = ff.run_fastforward_experiment(
            config_for(scenario, delta, duration, mode="analytic"))
        assert result.mode_used == "analytic"
        trace = result.trace
        assert np.array_equal(event.send_times, trace.send_times)
        assert np.array_equal(event.rtts, trace.rtts)
        # The engine writes its metadata by hand: it must be the event
        # trace's, plus the mode.
        assert trace.meta == {**event.meta, "mode": "analytic"}

    def test_losses_occur_and_match_exactly(self):
        # Guards the parametrization above: the long cell really does
        # exercise the drop path, and every lost probe agrees.
        event = run_experiment(config_for("inria-umd", 0.05, 60.0))
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 60.0, mode="analytic"))
        event_lost = event.rtts == LOST
        assert event_lost.any()
        assert np.array_equal(event_lost, result.trace.rtts == LOST)

    def test_bottleneck_drop_counts_match_event_queues(self):
        config = config_for("inria-umd", 0.05, 60.0)
        scenario = execute_experiment(config).scenario
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 60.0, mode="analytic"))
        for bottleneck in (scenario.bottleneck_fwd, scenario.bottleneck_rev):
            stats = result.queue_stats[bottleneck.name]
            assert stats["drops"] == bottleneck.queue.drops
            assert stats["arrivals"] == bottleneck.queue.arrivals

    def test_trace_meta_records_the_mode(self):
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        meta = result.trace.meta
        assert meta["mode"] == "analytic"
        assert "fallback" not in meta
        assert meta["scenario"] == "inria-umd"
        assert meta["seed"] == 3


class TestFallback:
    def test_ineligible_scenario_falls_back_to_event(self, monkeypatch):
        def build_with_stall(config):
            built = build_scenario(config)
            path = built.network.path(built.source, built.echo)
            first = built.network.node(path[0]).interface_to(path[1])
            first.add_egress_fault(
                PeriodicStallFault(period=90.0, stall=1.0))
            return built

        monkeypatch.setattr(ff, "build_scenario", build_with_stall)
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        assert result.mode_used == "event"
        assert result.fallback_reasons
        assert result.trace.meta["mode"] == "event"
        assert result.trace.meta["fallback"] == result.fallback_reasons
        # The event fallback reports every active queue, campaign-style.
        assert result.queue_stats

    def test_overloaded_access_link_falls_back(self):
        # A mix this bursty overflows the access queue, which the replay
        # models as lossless: the cell must run on the event engine, on a
        # freshly built scenario, and match a plain event run.
        def config(mode):
            return ExperimentConfig(
                delta=0.05, duration=2.0, warmup=3.0, seed=1,
                scenario_kwargs={"window": 400, "mean_file_packets": 400.0},
                mode=mode)

        event = run_experiment(config("event"))
        result = ff.run_fastforward_experiment(config("analytic"))
        assert result.mode_used == "event"
        access = forward_access(build_scenario(config("event"))).name
        assert any(f"access link {access}" in reason
                   for reason in result.fallback_reasons)
        assert result.trace.meta["fallback"] == result.fallback_reasons
        assert np.array_equal(event.send_times, result.trace.send_times)
        assert np.array_equal(event.rtts, result.trace.rtts)


class TestRunnerDispatch:
    def test_run_experiment_dispatches_on_mode(self):
        trace = run_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        assert trace.meta["mode"] == "analytic"
        assert len(trace) == 120

    def test_execute_experiment_reports_engine_and_spans(self):
        from repro.obs.spans import SpanTracer
        phases = {}
        for mode in ("event", "analytic"):
            tracer = SpanTracer(worker="test")
            result = execute_experiment(
                config_for("inria-umd", 0.05, 6.0, mode=mode),
                tracer=tracer)
            assert result.mode_used == mode
            assert result.fallback_reasons == []
            assert result.queue_stats
            phases[mode] = [record.phase for record in tracer.records]
        # Event cells time scenario build and probing apart; an analytic
        # cell is one sim span (plus a replay build, without a memo).
        assert sorted(phases["event"]) == ["setup", "sim"]
        assert sorted(phases["analytic"]) == ["replay", "sim"]

    def test_event_mode_traces_carry_no_mode_key(self):
        trace = run_experiment(config_for("inria-umd", 0.05, 6.0))
        # Event-mode metadata is golden (see test_golden_trace) and must
        # not grow keys because the analytic mode exists.
        assert "mode" not in trace.meta

    def test_observed_experiment_rejects_analytic_mode(self):
        with pytest.raises(ConfigurationError):
            run_observed_experiment(
                config_for("inria-umd", 0.05, 6.0, mode="analytic"))


class TestCampaignAnalytic:
    def test_campaign_runs_analytic_cells(self):
        spec = CampaignSpec(deltas=(0.05,), seeds=(3,), duration=6.0,
                            scenario="inria-umd", mode="analytic")
        result = run_campaign(spec)
        trace = result.traces[(0.05, 3)]
        assert trace.meta["mode"] == "analytic"
        stats = result.queue_stats[(0.05, 3)]
        built = build_scenario(config_for("inria-umd", 0.05, 6.0))
        assert set(stats) == {built.bottleneck_fwd.name,
                              built.bottleneck_rev.name}
        assert 0.05 in result.summaries

    def test_campaign_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(deltas=(0.05,), seeds=(1,), mode="wavelet")
