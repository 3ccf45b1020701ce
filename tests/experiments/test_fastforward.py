"""Equivalence and eligibility tests for the analytic execution mode.

Event mode is the golden reference (pinned byte-for-byte by
``test_golden_trace.py``).  The analytic fast-forward must match it
*bit for bit* on every eligible scenario: the engine replays the
identical RNG draw sequence and per-packet arrival order, so any
divergence — one flipped loss, one shifted tick — is a bug here, never
a re-baseline.
"""

import dataclasses
import functools
import hashlib
from unittest import mock

import numpy as np
import pytest

import repro.queueing.fastforward as qff
from repro.errors import ConfigurationError
from repro.experiments import fastforward as ff
from repro.experiments import runner
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import SCENARIO_BUILDERS, ExperimentConfig
from repro.experiments.runner import (
    build_scenario,
    execute_experiment,
    run_experiment,
    run_observed_experiment,
)
from repro.net.clocks import Clock
from repro.net.faults import PeriodicStallFault, RandomDropFault
from repro.net.tap import PacketTap
from repro.netdyn import packetfmt
from repro.netdyn.source import SourceAgent
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
    hops[-1].add_egress_fault(RandomDropFault(0.01, rng))


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

        class OffsetClock(Clock):
            def now(self):
                return 1.0 + built.sim.now

        built.network.host(built.source).clock = OffsetClock()
        reasons = ff.fastforward_ineligibilities(built)
        assert any("clock" in reason for reason in reasons)

    @pytest.mark.parametrize("perturb, expected", [
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


@functools.lru_cache(maxsize=None)
def engine_pair(scenario, delta, duration, seed=3, buffer_packets=None):
    """One cell on both engines, with what each keeps to itself.

    Returns the event result, the event delivery instant of each returned
    probe by sequence number, the analytic result, its raw receive
    instants before ``quantize_stamps`` (one per delivered probe, in
    sequence order), and whether each bottleneck pass, forward then
    reverse, walked.  Cached: several tests read the same cells.
    """
    kwargs = {} if buffer_packets is None else {
        "buffer_packets": buffer_packets}

    def config(mode):
        return ExperimentConfig(delta=delta, duration=duration, seed=seed,
                                scenario=scenario, mode=mode,
                                scenario_kwargs=kwargs)

    delivered = {}
    on_return = SourceAgent._on_return

    def recording_return(agent, packet):
        seq = packetfmt.decode_probe(packet.payload).seq
        delivered.setdefault(seq, agent.host.sim.now)
        on_return(agent, packet)

    with mock.patch.object(SourceAgent, "_on_return", recording_return):
        event = execute_experiment(config("event"))

    walked = []
    readings = []
    walk, run_pass, read = (qff.drop_tail_walk, ff.bottleneck_pass,
                            ff._clock_readings)

    def counting_walk(*args):
        walked[-1] = True
        return walk(*args)

    def recording_pass(*args):
        walked.append(False)
        return run_pass(*args)

    def recording_read(sim_times, resolution):
        readings.append(sim_times)
        return read(sim_times, resolution)

    with mock.patch.object(qff, "drop_tail_walk", counting_walk), \
            mock.patch.object(ff, "bottleneck_pass", recording_pass), \
            mock.patch.object(ff, "_clock_readings", recording_read):
        analytic = ff.run_fastforward_experiment(config("analytic"))
    # The clock is read at the send instants, then at the receptions.
    return event, delivered, analytic, readings[1], walked


#: The equivalence cells: (scenario, delta, duration, seed).
EQUIVALENCE_CELLS = [
    ("inria-umd", 0.05, 12.0, 3),
    ("inria-umd", 0.5, 30.0, 3),
    # Long enough for the bottleneck to overflow: the drop-tail walk
    # must reproduce every drop decision, not just the certified pass.
    ("inria-umd", 0.05, 60.0, 3),
    ("umd-pitt", 0.02, 4.0, 3),
]
#: The CI fast-forward smoke cell: both bottlenecks walk.
CI_CELL = ("inria-umd", 0.05, 30.0, 1)
#: Statistics a certified (not walked) bottleneck matches on these cells.
#: Elsewhere a closed-form start can land within its rounding error of an
#: arrival or of the end and move a departure or the peak by one.
COUNTS = ("arrivals", "drops", "departures", "occupancy_max_pkts")


class TestExactEquivalence:
    """Analytic == event, bit for bit — including under real losses."""

    @pytest.mark.parametrize("scenario,delta,duration,seed",
                             EQUIVALENCE_CELLS)
    def test_bit_identical_traces(self, scenario, delta, duration, seed):
        event, _, result, _, _ = engine_pair(scenario, delta, duration,
                                             seed)
        assert result.mode_used == "analytic"
        trace = result.trace
        assert np.array_equal(event.trace.send_times, trace.send_times)
        assert np.array_equal(event.trace.rtts, trace.rtts)
        # The engine writes its metadata by hand: it must be the event
        # trace's, plus the mode.
        assert trace.meta == {**event.trace.meta, "mode": "analytic"}

    def test_losses_occur_and_match_exactly(self):
        # Guards the parametrization above: the long cell really does
        # exercise the drop path, and every lost probe agrees.
        event, _, result, _, walked = engine_pair("inria-umd", 0.05, 60.0)
        event_lost = event.trace.rtts == LOST
        assert event_lost.any()
        assert walked == [True, True]
        assert np.array_equal(event_lost, result.trace.rtts == LOST)

    @pytest.mark.parametrize("scenario,delta,duration,seed", [
        *EQUIVALENCE_CELLS, CI_CELL])
    def test_bottleneck_drop_counts_match_event_queues(
            self, scenario, delta, duration, seed):
        # A walked bottleneck replays the event queue, so every statistic
        # is equal; a certified one matches the counts.
        event, _, result, _, walked = engine_pair(scenario, delta,
                                                  duration, seed)
        scenario = event.scenario
        bottlenecks = (scenario.bottleneck_fwd, scenario.bottleneck_rev)
        for bottleneck, walks in zip(bottlenecks, walked):
            stats = result.queue_stats[bottleneck.name]
            want = event.queue_stats[bottleneck.name]
            if walks:
                assert stats == want, bottleneck.name
            else:
                assert [stats[key] for key in COUNTS] == \
                    [want[key] for key in COUNTS], bottleneck.name
        assert any(walked)

    def test_late_probes_never_reach_the_reverse_queue(self):
        # On the deep-buffer campaign_pool shape at δ 8 ms the reverse
        # queue holds probes past the end of the run; those never arrive
        # in event mode, and must not be counted here either.
        event, _, result, _, walked = engine_pair(
            "inria-umd", 0.008, 30.0, seed=2, buffer_packets=8192)
        assert walked == [False, False]
        for name, want in event.queue_stats.items():
            if name in result.queue_stats:
                stats = result.queue_stats[name]
                assert [stats[key] for key in COUNTS] == \
                    [want[key] for key in COUNTS], name

    @pytest.mark.parametrize("scenario,delta,duration,seed", [
        *EQUIVALENCE_CELLS[:3], CI_CELL])
    def test_raw_receive_times_match_event_deliveries(
            self, scenario, delta, duration, seed):
        # Where both bottlenecks walk, every float of a probe's journey
        # is the event engine's: the receive instants agree before the
        # microsecond rounding of the stamps.
        _, delivered, result, raw, walked = engine_pair(
            scenario, delta, duration, seed)
        assert walked == [True, True]
        returned = np.flatnonzero(result.trace.rtts != LOST)
        assert sorted(delivered) == returned.tolist()
        assert [delivered[seq].hex() for seq in returned.tolist()] == \
            [float(value).hex() for value in raw]

    def test_trace_meta_records_the_mode(self):
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        meta = result.trace.meta
        assert meta["mode"] == "analytic"
        assert "fallback" not in meta
        assert meta["scenario"] == "inria-umd"
        assert meta["seed"] == 3


#: Bottleneck passes, pinned: (scenario, delta) -> (drop-tail walks,
#: sha256 of the rtt bytes, every queue_stats value as float.hex).  The
#: INRIA-UMd 20 ms and UMd-Pitt cells overflow their forward buffer; the
#: UMd-Pitt reverse direction passes the byte-mode no-drop certificate,
#: so that cell walks once.  The deep-buffer INRIA-UMd 50 ms cell (the
#: perfbench ``campaign_pool`` shape) passes the packet-mode certificate
#: both ways.
WALK_PINS = {
    ("inria-umd", 0.02): (2, (
        "f05dbdd25c43cd170c19d1a567cbbac060b670ffc59fa0e58ced8875bde7a3e7"), {
        "icm-sophia.icp.net->Ithaca.NY.NSS.NSF.NET": {
            "arrivals": "0x1.e500000000000p+12",
            "drops": "0x1.3a00000000000p+9",
            "departures": "0x1.bdc0000000000p+12",
            "loss_fraction": "0x1.4b7afc4e1e9d5p-4",
            "occupancy_mean_pkts": "0x1.4297dee8176fbp+2",
            "occupancy_max_pkts": "0x1.e000000000000p+3",
            "occupancy_mean_bytes": "0x1.ccadd68110046p+9"},
        "Ithaca.NY.NSS.NSF.NET->icm-sophia.icp.net": {
            "arrivals": "0x1.c890000000000p+12",
            "drops": "0x1.3980000000000p+9",
            "departures": "0x1.a160000000000p+12",
            "loss_fraction": "0x1.5f90faa3609e2p-4",
            "occupancy_mean_pkts": "0x1.45f1b02554653p+2",
            "occupancy_max_pkts": "0x1.e000000000000p+3",
            "occupancy_mean_bytes": "0x1.0df391d6fa8c6p+10"}}),
    ("umd-pitt", 0.008): (1, (
        "e9c4b662340d68444302aa4bc4fc48f06cdb2c713beeeeb8098919d9a14e76a1"), {
        "externals.gw.pitt.edu->136.142.2.54": {
            "arrivals": "0x1.2395000000000p+18",
            "drops": "0x1.1c00000000000p+6",
            "departures": "0x1.2383400000000p+18",
            "loss_fraction": "0x1.f2afb960dc7aep-13",
            "occupancy_mean_pkts": "0x1.5e85b3a56837fp+2",
            "occupancy_max_pkts": "0x1.b800000000000p+6",
            "occupancy_mean_bytes": "0x1.8499777c5815dp+10"},
        "136.142.2.54->externals.gw.pitt.edu": {
            "arrivals": "0x1.e079000000000p+17",
            "drops": "0x0.0p+0",
            "departures": "0x1.e076800000000p+17",
            "loss_fraction": "0x0.0p+0",
            "occupancy_mean_pkts": "0x1.9323886699796p+1",
            "occupancy_max_pkts": "0x1.a800000000000p+5",
            "occupancy_mean_bytes": "0x1.e0e654a8cbd5ap+9"}}),
    ("inria-umd", 0.05): (0, (
        "1a3ff8aaab79c243d811a99870b5064dc76c6f95d4b3b72e86c73ec29ea7cb92"), {
        "icm-sophia.icp.net->Ithaca.NY.NSS.NSF.NET": {
            "arrivals": "0x1.7480000000000p+12",
            "drops": "0x0.0p+0",
            "departures": "0x1.7480000000000p+12",
            "loss_fraction": "0x0.0p+0",
            "occupancy_mean_pkts": "0x1.5759c325a9661p+5",
            "occupancy_max_pkts": "0x1.3500000000000p+8",
            "occupancy_mean_bytes": "0x1.0e28db5ad1a6dp+13"},
        "Ithaca.NY.NSS.NSF.NET->icm-sophia.icp.net": {
            "arrivals": "0x1.6840000000000p+12",
            "drops": "0x0.0p+0",
            "departures": "0x1.6840000000000p+12",
            "loss_fraction": "0x0.0p+0",
            "occupancy_mean_pkts": "0x1.90bb74320931ep+5",
            "occupancy_max_pkts": "0x1.1d00000000000p+8",
            "occupancy_mean_bytes": "0x1.9892fb0657078p+13"}}),
}
#: Scenario kwargs of the pinned cells that are not the calibrated default.
PIN_SCENARIO_KWARGS = {("inria-umd", 0.05): {"buffer_packets": 8192}}


class TestWalkPinned:
    """The bottleneck passes' exact output on three cells.

    Packet mode (INRIA-UMd) and byte mode (UMd-Pitt) each pin the rtt
    bytes and every bottleneck statistic of the drop-tail walk, and the
    deep-buffer cell pins the packet-mode certificate's, so any change to
    either path's float operations or their order shows up here.
    """

    @pytest.mark.parametrize("scenario,delta", sorted(WALK_PINS))
    def test_walk_output_is_pinned(self, scenario, delta, monkeypatch):
        walks = []
        walk = qff.drop_tail_walk

        def counting_walk(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(qff, "drop_tail_walk", counting_walk)
        config = ExperimentConfig(
            delta=delta, duration=60.0, seed=2, scenario=scenario,
            mode="analytic",
            scenario_kwargs=PIN_SCENARIO_KWARGS.get((scenario, delta), {}))
        result = ff.run_fastforward_experiment(config)
        expected_walks, rtt_digest, stats = WALK_PINS[scenario, delta]
        assert result.mode_used == "analytic"
        assert len(walks) == expected_walks
        assert hashlib.sha256(
            result.trace.rtts.tobytes()).hexdigest() == rtt_digest
        assert {name: {key: float.hex(value)
                       for key, value in queue.items()}
                for name, queue in result.queue_stats.items()} == stats


class TestFallback:
    def test_ineligible_scenario_falls_back_to_event(self, monkeypatch):
        build = SCENARIO_BUILDERS["inria-umd"]

        def build_with_stall(**kwargs):
            built = build(**kwargs)
            path = built.network.path(built.source, built.echo)
            first = built.network.node(path[0]).interface_to(path[1])
            first.add_egress_fault(
                PeriodicStallFault(period=90.0, stall=1.0))
            return built

        monkeypatch.setitem(SCENARIO_BUILDERS, "inria-umd", build_with_stall)
        # A template held from another test was built without the stall.
        monkeypatch.setattr(runner, "_held_template", None)
        config = config_for("inria-umd", 0.05, 6.0, mode="analytic")
        result = ff.run_fastforward_experiment(config)
        assert result.mode_used == "event"
        assert result.fallback_reasons
        assert result.trace.meta["mode"] == "event"
        assert result.trace.meta["fallback"] == result.fallback_reasons
        # The event fallback reports every active queue, campaign-style.
        assert result.queue_stats
        # It probes a snapshot of the stalled build, as an event run does.
        built = result.scenario
        path = built.network.path(built.source, built.echo)
        assert any(isinstance(fault, PeriodicStallFault) for fault in
                   built.network.node(path[0]).interface_to(
                       path[1]).egress_faults)
        event = run_experiment(dataclasses.replace(config, mode="event"))
        assert np.array_equal(event.rtts, result.trace.rtts)

    def test_overloaded_access_link_falls_back(self):
        # A mix this bursty overflows the access queue (the event run
        # drops 6 packets there), which the replay models as lossless:
        # the cell must run on the event engine, on a warm-up snapshot,
        # and match a plain event run.
        def config(mode):
            return ExperimentConfig(
                delta=0.05, duration=5.0, warmup=3.0, seed=1,
                scenario_kwargs={"window": 1000,
                                 "mean_file_packets": 1000.0},
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
