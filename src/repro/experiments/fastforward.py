"""Analytic fast-forward execution of a calibrated probe experiment.

The calibrated scenarios are, structurally, exactly the paper's Figure 3
model: probes cross a fixed delay, one FIFO bottleneck per direction, and
an open-loop Internet stream.  This module exploits that: instead of
driving every cross packet through the event kernel, it

1. **replays the cross-traffic RNG streams**: it makes the same scalar
   calls on each source's generator, in event order, that the event-mode
   source makes, producing the *exact* emission times and packet sizes
   event mode would generate;
2. pushes those emissions through their access link with one vectorized
   :func:`~repro.queueing.fastforward.fifo_waits` call (the reuse of the
   Lindley recurrence of :mod:`repro.analysis.lindley`), yielding exact
   bottleneck arrival times;
3. advances each bottleneck with one
   :func:`~repro.queueing.fastforward.bottleneck_pass`: a vectorized
   certificate pass when the buffer provably cannot overflow (the merged
   cross+probe stream is then a single Lindley recursion), otherwise one
   per-packet :func:`~repro.queueing.fastforward.drop_tail_walk` over the
   same merged stream, whose admission rules replicate the event queue
   exactly;
4. replays fault decisions by drawing from the *same*
   :class:`~repro.net.faults.RandomDropFault` generators in probe order.

Because every step is draw-for-draw and packet-for-packet identical to
event mode, the analytic trace matches the event trace *bit for bit* on
eligible scenarios — the equivalence tests pin it to the goldens with
``np.array_equal``, not a tolerance.  Event mode remains the golden
reference: any future divergence is a bug in this module, never a
re-baseline.

The mode only handles what it can do exactly: open-loop
:class:`~repro.traffic.ftp.FtpSource` / :class:`~repro.traffic.telnet.TelnetSource`
cross traffic, :class:`~repro.net.faults.RandomDropFault` on probe-only
interfaces, and floor-quantized or perfect source clocks.  Anything else —
a reactive mini-TCP flow, a stall fault, a lifecycle hook, a fault shared
with cross traffic, an access link that may overflow — produces a reason
and the cell falls back to the runner's exact event execution
(:func:`fastforward_ineligibilities` reports the structural ones).  One
walk over each probe path yields both those reasons and the direction
models the replay runs on.

The remaining approximation, stated once here: probes and cross packets
are assumed to queue *only* at the bottleneck interfaces and the mix
access links.  Eligibility guarantees cross traffic shares nothing else
with the probes, and on every calibrated path the probe spacing out of a
FIFO stage is never shorter than any downstream transmission time, so the
assumption is exact there; the equivalence tests verify it empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    ScenarioKey,
    build_scenario,
    event_result,
    scenario_key,
    warm_scenario,
)
from repro.net.clocks import PerfectClock, QuantizedClock
from repro.net.faults import RandomDropFault
from repro.net.link import Interface
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.net.routing import Network
from repro.netdyn import packetfmt
from repro.netdyn.session import DEFAULT_DRAIN
from repro.netdyn.trace import LOST, ProbeTrace
from repro.topology.builder import PathScenario
from repro.queueing.fastforward import bottleneck_pass, fifo_waits
from repro.traffic.ftp import FtpSource
from repro.traffic.telnet import TelnetSource
from repro.units import (
    bytes_to_bits,
    seconds_to_ms,
    transmission_delay,
)

#: Safety margin on the access-link no-drop certificate: estimated peak
#: backlog must stay below this fraction of the access queue capacity.
ACCESS_BACKLOG_MARGIN = 0.9


#: Wire size of one probe, bytes.
_PROBE_WIRE_BYTES = packetfmt.PROBE_PAYLOAD_BYTES + UDP_WIRE_OVERHEAD_BYTES


@dataclass
class DirectionModel:
    """One direction's bottleneck plus everything fixed around it."""

    #: The bottleneck interface (its name labels the queue statistics).
    bottleneck: Interface
    #: Probe service time at this bottleneck, seconds.
    service: float
    #: Fixed seconds from probe origination to bottleneck-queue arrival.
    before: float
    #: Fixed seconds from bottleneck service completion to delivery.
    after: float
    #: Bernoulli drop stages crossed before the queue, in path order.
    pre_faults: List[RandomDropFault]
    #: Bernoulli drop stages crossed after the queue, in path order.
    post_faults: List[RandomDropFault]


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------
def _hop_interfaces(network: Network, path: Sequence[str],
                    ) -> List[Interface]:
    """The interfaces a packet crosses along ``path``, in order."""
    return [network.node(a).interface_to(b)
            for a, b in zip(path[:-1], path[1:])]


def _walk_direction(scenario: PathScenario, path: Sequence[str],
                    bottleneck: Interface, label: str, reasons: List[str],
                    ) -> Tuple[DirectionModel, List[Interface]]:
    """One probe direction's model and crossed interfaces, in one walk.

    Each hop either appends an ineligibility to ``reasons`` or feeds the
    model, which is only meaningful if none was appended.  ``before`` runs
    from origination to arrival at the bottleneck *queue* (including the
    bottleneck node's processing delay), ``after`` from the end of its
    transmission to delivery (starting with its propagation delay); other
    hops are assumed not to queue — the module-level invariant.
    """
    network = scenario.network
    hooked = [name for name in path
              if network.node(name).lifecycle is not None]
    if hooked:
        reasons.append(f"lifecycle hook on node {hooked[0]}")
    interfaces = _hop_interfaces(network, path)
    crossings = sum(1 for i in interfaces if i is bottleneck)
    if crossings != 1:
        reasons.append(
            f"{label} probe path crosses its bottleneck "
            f"{crossings} times (need exactly 1)")

    before = 0.0
    after = bottleneck.prop_delay
    pre: List[RandomDropFault] = []
    post: List[RandomDropFault] = []
    seen = False
    for a, interface in zip(path[:-1], interfaces):
        if interface.lifecycle is not None:
            reasons.append(f"lifecycle hook on interface {interface.name}")
        on_bottleneck = (interface is scenario.bottleneck_fwd
                         or interface is scenario.bottleneck_rev)
        for fault in interface.egress_faults:
            if on_bottleneck:
                reasons.append(
                    f"fault on bottleneck interface {interface.name}")
            elif type(fault) is not RandomDropFault:
                reasons.append(
                    f"{type(fault).__name__} on {interface.name} is not "
                    "a replayable random drop")
            else:
                (post if seen else pre).append(fault)
        processing = network.node(a).processing_delay
        if interface is bottleneck:
            before += processing
            seen = True
            continue
        segment = (processing
                   + transmission_delay(_PROBE_WIRE_BYTES,
                                        interface.rate_bps)
                   + interface.prop_delay)
        if seen:
            after += segment
        else:
            before += segment
    service = transmission_delay(_PROBE_WIRE_BYTES, bottleneck.rate_bps)
    return DirectionModel(bottleneck, service, before, after, pre,
                          post), interfaces


def _path_model(scenario: PathScenario,
                ) -> Tuple[List[str], Tuple[DirectionModel, DirectionModel]]:
    """The sorted ineligibility reasons and both direction models.

    Structural only and consumes no randomness, so an eligible scenario
    proceeds straight to the replay and an ineligible one can be probed
    on the event engine as it is.
    """
    reasons: List[str] = []
    network = scenario.network
    clock = network.host(scenario.source).clock
    if type(clock) not in (PerfectClock, QuantizedClock):
        reasons.append(
            f"source clock {type(clock).__name__} is not replayable")

    fwd, fwd_interfaces = _walk_direction(
        scenario, network.path(scenario.source, scenario.echo),
        scenario.bottleneck_fwd, "forward", reasons)
    rev, rev_interfaces = _walk_direction(
        scenario, network.path(scenario.echo, scenario.source),
        scenario.bottleneck_rev, "reverse", reasons)

    generator_ids = [id(fault._rng)
                     for direction in (fwd, rev)
                     for fault in direction.pre_faults + direction.post_faults]
    if len(set(generator_ids)) != len(generator_ids):
        reasons.append("faults share a random generator "
                       "(crossing order not replayable)")

    probe_ids = {id(i) for i in fwd_interfaces + rev_interfaces}
    for mix, bottleneck, label in (
            (scenario.mix_fwd, scenario.bottleneck_fwd, "forward"),
            (scenario.mix_rev, scenario.bottleneck_rev, "reverse")):
        if mix is None:
            continue
        access_ids: List[int] = []
        for source in mix.sources:
            if type(source) not in (FtpSource, TelnetSource):
                reasons.append(
                    f"{label} mix has a non-open-loop source "
                    f"{type(source).__name__}")
                continue
            path = network.path(source.host.name, source.destination)
            interfaces = _hop_interfaces(network, path)
            if len(interfaces) < 2 or interfaces[1] is not bottleneck:
                reasons.append(
                    f"{label} mix source {source.host.name} does not "
                    "attach directly to the bottleneck ingress")
                continue
            access_ids.append(id(interfaces[0]))
            shared = [i for i in interfaces if id(i) in probe_ids]
            if any(i is not bottleneck for i in shared):
                reasons.append(
                    f"{label} mix shares a non-bottleneck interface "
                    "with the probes")
            for interface in interfaces:
                if interface.egress_faults:
                    if interface is not bottleneck:
                        reasons.append(
                            f"fault on mix interface {interface.name}")
                if interface.lifecycle is not None:
                    reasons.append(
                        f"lifecycle hook on mix interface {interface.name}")
        if len(set(access_ids)) > 1:
            reasons.append(
                f"{label} mix sources use different access links")
    return sorted(set(reasons)), (fwd, rev)


def fastforward_ineligibilities(scenario: PathScenario) -> List[str]:
    """Why ``scenario`` cannot run analytically (empty = eligible).

    The reasons half of the one path walk the engine itself runs.
    """
    return _path_model(scenario)[0]


# ---------------------------------------------------------------------------
# Cross-traffic replay
# ---------------------------------------------------------------------------
def _ftp_emissions(source: FtpSource, horizon: float,
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay an FTP source's draws: (emission times, wire bits).

    The source has drawn nothing yet, so making the same scalar calls on
    its generator (``source.rng``) in event order yields the exact
    emission sequence event mode produces.  The burst inner loop is
    vectorized — window ticks draw nothing, so one ``np.repeat`` over the
    per-window burst counts emits the same packet sequence the per-packet
    loop would.
    """
    rng = source.rng
    exponential = rng.exponential
    mean_interval = source._mean_session_interval
    wire_bits = float(bytes_to_bits(source.payload_bytes
                                    + UDP_WIRE_OVERHEAD_BYTES))
    window = source.window
    window_interval = source.window_interval
    ticks: List[float] = []
    bursts: List[int] = []
    # Event order on this stream: one exponential at start(), then per
    # session tick a geometric (file size) followed by an exponential
    # (next session); window ticks draw nothing.
    t = exponential(mean_interval)
    while t <= horizon:
        remaining = int(rng.geometric(source._file_size_p))
        tick = t
        while remaining > 0 and tick <= horizon:
            burst = min(window, remaining)
            ticks.append(tick)
            bursts.append(burst)
            remaining -= burst
            if remaining > 0:
                tick = tick + window_interval
        t = t + exponential(mean_interval)
    times = np.repeat(np.asarray(ticks, dtype=float),
                      np.asarray(bursts, dtype=np.intp))
    return times, np.full(times.size, wire_bits)


def _telnet_emissions(source: TelnetSource, horizon: float,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay a Telnet source's draws: (emission times, wire bits).

    Same replay as :func:`_ftp_emissions`: each emission makes the calls
    :class:`~repro.traffic.telnet.TelnetSource` makes, the size draw
    (``source.sizes.sample``) and then the next exponential, on the same
    generator.  The payloads become wire bits in one vectorized pass.
    """
    rng = source.rng
    exponential = rng.exponential
    mean_interval = source._mean_interval
    sample = source.sizes.sample
    times: List[float] = []
    payloads: List[int] = []
    # Event order: one exponential at start(), then per emission a size
    # draw followed by the next exponential.
    t = exponential(mean_interval)
    while t <= horizon:
        payloads.append(sample(rng))
        times.append(t)
        t = t + exponential(mean_interval)
    bits = bytes_to_bits(np.asarray(payloads, dtype=float)
                         + UDP_WIRE_OVERHEAD_BYTES)
    return np.asarray(times, dtype=float), bits


@dataclass
class CrossStream:
    """One direction's replayed cross traffic, sliceable to any horizon.

    Emission generation truncates only the tail (``t <= horizon``), and
    the access-link Lindley pass is causal, so everything up to a shorter
    horizon is a bit-identical *prefix* of this stream — the arrays here
    are therefore built once per (scenario, kwargs, seed) and cut with
    ``np.searchsorted`` per cell (:func:`slice_stream`).  The running
    peak-backlog estimate makes the per-prefix no-drop certificate a
    single indexed lookup instead of a fresh max/min scan.
    """

    #: Merged emission times, sorted (the prefix cut key).
    emit_times: np.ndarray
    #: Exact bottleneck-queue arrival times, same order (nondecreasing —
    #: FIFO departures plus fixed latencies).
    arrivals: np.ndarray
    #: Wire bits of each packet.
    bits: np.ndarray
    #: Prefix peak-backlog estimate (packets) on the access link:
    #: ``cummax(waits) * rate / cummin(bits)``, so element ``i-1`` equals
    #: the certificate value a fresh build over the first ``i`` emissions
    #: would compute.
    peak_backlogs: np.ndarray
    #: Access-link identity for the overflow diagnostic.
    access_name: str
    access_capacity: int


@dataclass
class CrossReplay:
    """Both directions' cross streams, keyed and memoized per seed.

    A replay is a pure function of (scenario, kwargs, seed) up to its
    build ``horizon``; :func:`~repro.experiments.runner.scenario_key` is the memo key, and
    :class:`CrossReplayMemo` treats any entry whose horizon covers a
    request as a hit (prefix slicing is exact, see :class:`CrossStream`).
    """

    horizon: float
    #: (forward, reverse); None where the direction has no mix.
    streams: Tuple[Optional[CrossStream], Optional[CrossStream]]


def _direction_stream(network: Network, mix, bottleneck: Interface,
                      horizon: float) -> Optional[CrossStream]:
    """Replay one direction's mix into a :class:`CrossStream`.

    Emissions from all of the mix's sources are merged, serialized through
    their shared access link with one vectorized Lindley pass, and shifted
    by the fixed latencies around it.
    """
    if mix is None:
        return None
    time_parts: List[np.ndarray] = []
    bit_parts: List[np.ndarray] = []
    host = None
    access: Optional[Interface] = None
    for source in mix.sources:
        if isinstance(source, FtpSource):
            t, b = _ftp_emissions(source, horizon)
        else:
            t, b = _telnet_emissions(source, horizon)
        time_parts.append(t)
        bit_parts.append(b)
        host = source.host
        path = network.path(source.host.name, source.destination)
        access = _hop_interfaces(network, path)[0]
    times = np.concatenate(time_parts)
    bits = np.concatenate(bit_parts)
    if times.size == 0:
        return CrossStream(emit_times=times, arrivals=times, bits=bits,
                           peak_backlogs=times, access_name="",
                           access_capacity=0)
    order = np.argsort(times, kind="stable")
    times = times[order]
    bits = bits[order]
    assert access is not None and host is not None
    send_times = times + host.processing_delay
    waits = fifo_waits(send_times, bits, access.rate_bps)
    peak_backlogs = (np.maximum.accumulate(waits) * access.rate_bps
                     / np.minimum.accumulate(bits))
    arrivals = (send_times + waits + bits / access.rate_bps
                + access.prop_delay
                + network.node(bottleneck.node.name).processing_delay)
    return CrossStream(emit_times=times, arrivals=arrivals, bits=bits,
                       peak_backlogs=peak_backlogs,
                       access_name=access.name,
                       access_capacity=access.queue.capacity)


def build_cross_replay(scenario: PathScenario, horizon: float) -> CrossReplay:
    """Replay both directions' cross traffic up to ``horizon``."""
    network = scenario.network
    return CrossReplay(horizon=float(horizon), streams=(
        _direction_stream(network, scenario.mix_fwd,
                          scenario.bottleneck_fwd, horizon),
        _direction_stream(network, scenario.mix_rev,
                          scenario.bottleneck_rev, horizon)))


def slice_stream(stream: Optional[CrossStream], horizon: float,
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The (arrivals, bits) prefix a fresh build at ``horizon`` would give.

    Applies the per-prefix no-drop certificate on the access link — the
    same check (and diagnostic) a direct replay at ``horizon`` performs,
    read off the precomputed running peak instead of recomputed.  A
    failure raises :class:`~repro.errors.ConfigurationError`, whose
    message :func:`run_fastforward_experiment` records as the cell's
    fallback reason.
    """
    if stream is None:
        return np.empty(0), np.empty(0)
    cut = int(np.searchsorted(stream.emit_times, horizon, side="right"))
    if cut == 0:
        return stream.emit_times[:0], stream.bits[:0]
    peak_backlog = float(stream.peak_backlogs[cut - 1])
    if peak_backlog > ACCESS_BACKLOG_MARGIN * stream.access_capacity:
        raise ConfigurationError(
            f"access link {stream.access_name} may overflow "
            f"(~{peak_backlog:.0f} packets backlogged of "
            f"{stream.access_capacity}); scenario too loaded for the "
            "no-drop access model")
    return stream.arrivals[:cut], stream.bits[:cut]


class CrossReplayMemo:
    """The last :class:`CrossReplay` built, held under its replay key.

    A hit needs the key to match *and* the held build horizon to cover
    the requested one (a shorter request is an exact prefix slice); a
    :meth:`put` replaces the held replay.  One replay is enough because
    every campaign visits cells in
    :func:`~repro.experiments.pool.plan_leases`' seed-major order: a
    serial campaign serves its leases in that order and each warm worker
    takes the next lease from its front, so once a process moves past a
    seed it never asks for that seed again.

    Hit and miss counters are execution mechanics: the campaign
    quarantines them in timing.json's ``dispatch`` block, never in any
    deterministic artifact — which is also why the memo lives beside the
    engine, not on :class:`~repro.experiments.campaign.CampaignSpec`.
    """

    def __init__(self) -> None:
        self._key: Optional[Hashable] = None
        self._replay: Optional[CrossReplay] = None
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable,
            horizon: float) -> Optional[CrossReplay]:
        """The held replay if it covers ``key`` to ``horizon``, or None."""
        replay = self._replay
        if replay is not None and self._key == key \
                and replay.horizon >= horizon:
            self.hits += 1
            return replay
        self.misses += 1
        return None

    def put(self, key: Hashable, replay: CrossReplay) -> None:
        self._key = key
        self._replay = replay

    def counters(self) -> Tuple[int, int]:
        """(hits, misses) snapshot, for delta accounting around a lease."""
        return self.hits, self.misses


_process_memo: Optional[CrossReplayMemo] = None


def process_replay_memo() -> CrossReplayMemo:
    """The process-global memo serial cells and warm workers share."""
    global _process_memo
    if _process_memo is None:
        _process_memo = CrossReplayMemo()
    return _process_memo


def cell_horizon(config: ExperimentConfig) -> float:
    """Simulated end time of one cell (warm-up + probe train + drain)."""
    return config.warmup + config.count * config.delta + DEFAULT_DRAIN


# ---------------------------------------------------------------------------
# Probe pipeline
# ---------------------------------------------------------------------------
def _apply_stages(stages: Sequence[RandomDropFault],
                  alive: np.ndarray) -> None:
    """Draw each stage's drop decisions for surviving probes, in order.

    Event mode draws one uniform per packet *reaching* a fault, in
    sequence order (probes cannot reorder); a probe dropped earlier never
    draws at later stages.  One batched
    :meth:`~repro.net.faults.RandomDropFault.drops_many` call per stage
    replays exactly those draws (``Generator.random(size=n)`` consumes
    the same doubles as ``n`` scalar draws).  Mutates ``alive`` in place
    and advances the faults' own generators/counters, keeping them
    draw-for-draw in step.
    """
    for stage in stages:
        indices = np.flatnonzero(alive)
        if indices.size == 0:
            continue
        dropped = stage.drops_many(indices.size)
        alive[indices[dropped]] = False


def _queue_pass(direction: DirectionModel, cross_times: np.ndarray,
                cross_bits: np.ndarray, probe_times: np.ndarray,
                alive: np.ndarray, probe_bits: float,
                end_time: float) -> Tuple[np.ndarray, dict]:
    """Run one direction's bottleneck over its cross arrivals and probes.

    ``cross_times``/``cross_bits`` are the direction's sliced cross
    stream (:func:`slice_stream`).  Returns the per-probe waits (zero
    for probes that never arrive) and the queue's statistics dict;
    ``alive`` is updated in place with queue drops.
    """
    live = np.flatnonzero(alive)
    queue = direction.bottleneck.queue
    probe_waits, admitted, stats = bottleneck_pass(
        cross_times, cross_bits, probe_times[live], probe_bits, end_time,
        direction.bottleneck.rate_bps, queue.capacity, queue.mode)
    waits = np.zeros(probe_times.shape)
    waits[live] = probe_waits
    alive[live] = admitted
    return waits, stats


def _clock_readings(sim_times: np.ndarray,
                    resolution: float) -> np.ndarray:
    """Replicate (possibly quantized) host clock reads at ``sim_times``.

    Bit-identical per element to the event-mode clock's
    ``int(t / resolution) * resolution``: ``int()`` truncates toward zero
    and the readings are nonnegative, so ``np.trunc`` computes the same
    tick count; every count in range is exactly representable in
    float64, so the final product matches the scalar ``int * float``.
    """
    if resolution > 0:
        return np.trunc(sim_times / resolution) * resolution
    return sim_times


def run_fastforward_experiment(config: ExperimentConfig,
                               memo: Optional[CrossReplayMemo] = None,
                               tracer: Optional[Any] = None,
                               replay_horizon: Optional[float] = None,
                               ) -> ExperimentResult:
    """Run one experiment analytically, or fall back to event mode.

    The analytic entry :func:`~repro.experiments.runner.execute_experiment`
    dispatches to.  An ineligible scenario (see
    :func:`fastforward_ineligibilities`), or one whose access link fails
    its no-drop certificate at this cell's horizon (:func:`slice_stream`),
    runs the runner's own event body
    (:func:`~repro.experiments.runner.event_result`) instead.  The
    returned trace carries the same metadata keys as an event-mode trace
    plus ``mode`` (and, on fallback, ``fallback`` with the sorted
    ineligibility reasons), so campaign artifacts always record how a cell
    was actually produced.

    Parameters
    ----------
    memo:
        Optional :class:`CrossReplayMemo`.  When given, the cross-traffic
        replay is fetched from (or built into) it under the cell's
        :func:`~repro.experiments.runner.scenario_key`; every cell still slices its own exact prefix,
        so the trace is byte-identical with or without a memo.
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`; replay builds
        (memo misses and memo-less runs) are timed under the ``replay``
        phase.  Telemetry only — never touches the result.
    replay_horizon:
        Build the replay out to at least this horizon (default: the
        cell's own end time).  A campaign passes its grid's maximum, so
        the first cell of a seed builds a replay that covers every δ of
        that seed.
    """
    scenario = build_scenario(config)
    reasons, (fwd, rev) = _path_model(scenario)
    if reasons:
        return event_result(*warm_scenario(config), config,
                            fallback_reasons=reasons)

    network = scenario.network
    count = config.count
    probe_bits = float(bytes_to_bits(_PROBE_WIRE_BYTES))
    end_time = cell_horizon(config)

    build_horizon = max(end_time, replay_horizon or 0.0)
    replay: Optional[CrossReplay] = None
    key: Optional[ScenarioKey] = None
    if memo is not None:
        # Cross traffic is open-loop: δ, duration and probe sizes never
        # change it, so one replay serves a seed's whole δ-stack, and the
        # memo's covers-semantics handles the horizon.
        key = scenario_key(config)
        replay = memo.get(key, end_time)
    if replay is None:
        from repro.obs.spans import PHASE_REPLAY, optional_span
        with optional_span(tracer, "replay", PHASE_REPLAY):
            replay = build_cross_replay(scenario, build_horizon)
        if memo is not None and key is not None:
            memo.put(key, replay)
    try:
        (cross_fwd, bits_fwd), (cross_rev, bits_rev) = [
            slice_stream(stream, end_time) for stream in replay.streams]
    except ConfigurationError as overflow:
        # The access certificate failed.  Building the replay drew from
        # this scenario's sources, so the event fallback probes a
        # warm-up snapshot instead.
        return event_result(*warm_scenario(config), config,
                            fallback_reasons=[str(overflow)])

    # Probe send times accumulate exactly like the source agent's
    # self-rescheduling timer (t += delta in floating point): cumsum is
    # the same left-to-right chain of float64 additions.
    increments = np.full(count, float(config.delta))
    increments[0] = float(config.warmup)
    send_times = np.cumsum(increments)
    resolution = network.host(scenario.source).clock.resolution
    source_stamps = packetfmt.quantize_stamps(
        _clock_readings(send_times, resolution))

    alive = np.ones(count, dtype=bool)

    _apply_stages(fwd.pre_faults, alive)
    arrivals_fwd = send_times + fwd.before
    waits_fwd, stats_fwd = _queue_pass(fwd, cross_fwd, bits_fwd,
                                       arrivals_fwd, alive, probe_bits,
                                       end_time)
    exits_fwd = arrivals_fwd + waits_fwd + fwd.service
    _apply_stages(fwd.post_faults, alive)

    arrivals_rev = exits_fwd + fwd.after + rev.before
    _apply_stages(rev.pre_faults, alive)
    waits_rev, stats_rev = _queue_pass(rev, cross_rev, bits_rev,
                                       arrivals_rev, alive, probe_bits,
                                       end_time)
    exits_rev = arrivals_rev + waits_rev + rev.service
    _apply_stages(rev.post_faults, alive)

    receive_times = exits_rev + rev.after
    alive &= receive_times <= end_time

    rtts = np.full(count, LOST)
    destinations = packetfmt.quantize_stamps(
        _clock_readings(receive_times[alive], resolution))
    rtts[alive] = destinations - source_stamps[alive]

    trace = ProbeTrace(
        delta=config.delta, send_times=send_times, rtts=rtts,
        payload_bytes=packetfmt.PROBE_PAYLOAD_BYTES,
        wire_bytes=_PROBE_WIRE_BYTES,
        meta={
            "source": scenario.source,
            "echo": scenario.echo,
            "clock_resolution": resolution,
            "reordered": 0,
            "duplicates": 0,
            "delta_ms": seconds_to_ms(config.delta),
            "count": count,
            "scenario": config.scenario,
            "seed": config.seed,
            "mu_bps": scenario.bottleneck_rate_bps,
            "mode": "analytic",
        })
    queue_stats = {
        fwd.bottleneck.name: stats_fwd,
        rev.bottleneck.name: stats_rev,
    }
    return ExperimentResult(trace=trace, queue_stats=queue_stats,
                            mode_used="analytic", fallback_reasons=[],
                            scenario=scenario)
