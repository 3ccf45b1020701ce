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
3. advances each bottleneck either in one vectorized certificate pass —
   when the buffer provably cannot overflow, the merged cross+probe
   stream is a single Lindley recursion — or, when drops are possible,
   through a per-packet :class:`~repro.queueing.fastforward.FluidQueue`
   walk whose admission rules replicate the event queue exactly;
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
with cross traffic — produces an ineligibility reason and the cell falls
back to the runner's exact event execution
(:func:`fastforward_ineligibilities` reports why).

The remaining approximation, stated once here: probes and cross packets
are assumed to queue *only* at the bottleneck interfaces and the mix
access links.  Eligibility guarantees cross traffic shares nothing else
with the probes, and on every calibrated path the probe spacing out of a
FIFO stage is never shorter than any downstream transmission time, so the
assumption is exact there; the equivalence tests verify it empirically.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    Scenario,
    build_scenario,
    event_result,
)
from repro.net.clocks import PerfectClock, QuantizedClock
from repro.net.faults import RandomDropFault
from repro.net.link import Interface
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.net.queue import MODE_PACKETS
from repro.net.routing import Network
from repro.netdyn import packetfmt
from repro.netdyn.session import DEFAULT_DRAIN
from repro.netdyn.trace import LOST, ProbeTrace
from repro.analysis.lindley import lindley_waits
from repro.queueing.fastforward import FluidQueue, fifo_waits
from repro.traffic.ftp import FtpSource
from repro.traffic.telnet import TelnetSource
from repro.units import (
    bits_to_bytes,
    bytes_to_bits,
    seconds_to_ms,
    transmission_delay,
)

#: Safety margin on the access-link no-drop certificate: estimated peak
#: backlog must stay below this fraction of the access queue capacity.
ACCESS_BACKLOG_MARGIN = 0.9


@dataclass
class DirectionModel:
    """One direction's bottleneck plus everything fixed around it."""

    #: Bottleneck interface label ("a->b"), for queue statistics.
    label: str
    rate_bps: float
    capacity: int
    queue_mode: str
    #: Probe service time at this bottleneck, seconds.
    service: float
    #: Fixed seconds from probe origination to bottleneck-queue arrival.
    before: float
    #: Fixed seconds from bottleneck service completion to delivery.
    after: float
    #: Bernoulli drop stages crossed before the queue, in path order.
    pre_faults: List[RandomDropFault] = field(default_factory=list)
    #: Bernoulli drop stages crossed after the queue, in path order.
    post_faults: List[RandomDropFault] = field(default_factory=list)
    #: Exact cross arrival times at the bottleneck queue, sorted.
    cross_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Wire bits of each cross arrival.
    cross_bits: np.ndarray = field(default_factory=lambda: np.empty(0))


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------
def _hop_interfaces(network: Network, path: Sequence[str],
                    ) -> List[Interface]:
    """The interfaces a packet crosses along ``path``, in order."""
    return [network.node(a).interface_to(b)
            for a, b in zip(path[:-1], path[1:])]


def _fixed_segments(network: Network, path: Sequence[str],
                    bottleneck: Interface, wire_bytes: int,
                    ) -> Tuple[float, float]:
    """Fixed latency before and after the bottleneck along ``path``.

    ``before`` runs from origination at ``path[0]`` to arrival at the
    bottleneck *queue* (including the bottleneck node's processing delay);
    ``after`` runs from the end of the bottleneck's transmission to
    delivery at ``path[-1]`` (starting with the bottleneck's propagation
    delay).  Assumes no queueing at the non-bottleneck hops — the
    module-level invariant.
    """
    before = 0.0
    after = bottleneck.prop_delay
    seen = False
    for a, b in zip(path[:-1], path[1:]):
        node = network.node(a)
        interface = node.interface_to(b)
        if interface is bottleneck:
            before += node.processing_delay
            seen = True
            continue
        segment = (node.processing_delay
                   + transmission_delay(wire_bytes, interface.rate_bps)
                   + interface.prop_delay)
        if seen:
            after += segment
        else:
            before += segment
    if not seen:
        raise ConfigurationError(
            f"path {path[0]!r}->{path[-1]!r} does not cross the "
            f"bottleneck {bottleneck.name!r}")
    return before, after


def _fault_stages(network: Network, path: Sequence[str],
                  bottleneck: Interface,
                  ) -> Tuple[List[RandomDropFault], List[RandomDropFault]]:
    """Drop stages before/after the bottleneck, in crossing order.

    Assumes eligibility already verified: no faults on the bottleneck
    itself, every fault is a :class:`RandomDropFault` on a probe-only
    interface.
    """
    pre: List[RandomDropFault] = []
    post: List[RandomDropFault] = []
    seen = False
    for interface in _hop_interfaces(network, path):
        if interface is bottleneck:
            seen = True
            continue
        bucket = post if seen else pre
        for fault in interface.egress_faults:
            bucket.append(fault)
        for fault in interface.ingress_faults:
            bucket.append(fault)
    return pre, post


def fastforward_ineligibilities(scenario: Scenario) -> List[str]:
    """Why ``scenario`` cannot run analytically (empty = eligible).

    Checks are structural only and consume no randomness, so an eligible
    scenario can proceed straight to extraction and an ineligible one can
    be rebuilt fresh for the event fallback.
    """
    reasons: List[str] = []
    network = scenario.network
    for attr in ("bottleneck_fwd", "bottleneck_rev", "mix_fwd", "mix_rev"):
        if not hasattr(scenario, attr):
            return [f"scenario exposes no {attr}"]

    clock = network.host(scenario.source).clock
    if type(clock) not in (PerfectClock, QuantizedClock):
        reasons.append(
            f"source clock {type(clock).__name__} is not replayable")

    fwd_path = network.path(scenario.source, scenario.echo)
    rev_path = network.path(scenario.echo, scenario.source)
    probe_interfaces: List[Interface] = []
    for path, bottleneck, label in (
            (fwd_path, scenario.bottleneck_fwd, "forward"),
            (rev_path, scenario.bottleneck_rev, "reverse")):
        interfaces = _hop_interfaces(network, path)
        crossings = sum(1 for i in interfaces if i is bottleneck)
        if crossings != 1:
            reasons.append(
                f"{label} probe path crosses its bottleneck "
                f"{crossings} times (need exactly 1)")
        probe_interfaces.extend(interfaces)

    faults: List[RandomDropFault] = []
    for interface in probe_interfaces:
        if interface.lifecycle is not None:
            reasons.append(f"lifecycle hook on interface {interface.name}")
        if interface.queue.lifecycle is not None:
            reasons.append(f"lifecycle hook on queue of {interface.name}")
        on_bottleneck = (interface is scenario.bottleneck_fwd
                         or interface is scenario.bottleneck_rev)
        for fault in (list(interface.egress_faults)
                      + list(interface.ingress_faults)):
            if on_bottleneck:
                reasons.append(
                    f"fault on bottleneck interface {interface.name}")
            elif type(fault) is not RandomDropFault:
                reasons.append(
                    f"{type(fault).__name__} on {interface.name} is not "
                    "a replayable random drop")
            else:
                faults.append(fault)
    for path in (fwd_path, rev_path):
        for name in path:
            node = network.node(name)
            if node.lifecycle is not None:
                reasons.append(f"lifecycle hook on node {name}")
                break

    generator_ids = [id(fault._rng) for fault in faults]
    if len(set(generator_ids)) != len(generator_ids):
        reasons.append("faults share a random generator "
                       "(crossing order not replayable)")

    probe_ids = {id(i) for i in probe_interfaces}
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
                if interface.egress_faults or interface.ingress_faults:
                    if interface is not bottleneck:
                        reasons.append(
                            f"fault on mix interface {interface.name}")
                if interface.lifecycle is not None \
                        or interface.queue.lifecycle is not None:
                    reasons.append(
                        f"lifecycle hook on mix interface {interface.name}")
        if len(set(access_ids)) > 1:
            reasons.append(
                f"{label} mix sources use different access links")
    return sorted(set(reasons))


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
    build ``horizon``; :func:`replay_key` is the memo key, and
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


def build_cross_replay(scenario: Scenario, horizon: float) -> CrossReplay:
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
    read off the precomputed running peak instead of recomputed.
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


#: Replay entries a :class:`CrossReplayMemo` keeps.  Sized for
#: a seed-affine lease (one hot seed, a little slack for interleaving);
#: an entry holds ~4 float64 arrays per direction, so the bound also caps
#: resident memory in long-lived warm workers.
DEFAULT_REPLAY_ENTRIES = 4


class CrossReplayMemo:
    """Bounded LRU of :class:`CrossReplay` artifacts, keyed by replay key.

    Holds at most :data:`DEFAULT_REPLAY_ENTRIES` replays.

    An entry hits when its key matches *and* its build horizon covers the
    requested one (a shorter request is an exact prefix slice); a stored
    replay with a longer horizon simply replaces the old entry.  Hit and
    miss counters are execution mechanics: the campaign quarantines them
    in timing.json's ``dispatch`` block, never in any deterministic
    artifact — which is also why the memo lives beside the engine, not on
    :class:`~repro.experiments.campaign.CampaignSpec`.
    """

    def __init__(self) -> None:
        self._replays: "OrderedDict[Hashable, CrossReplay]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._replays)

    def get(self, key: Hashable,
            horizon: float) -> Optional[CrossReplay]:
        """The covering replay for ``key``, or None (counted as a miss)."""
        replay = self._replays.get(key)
        if replay is not None and replay.horizon >= horizon:
            self._replays.move_to_end(key)
            self.hits += 1
            return replay
        self.misses += 1
        return None

    def put(self, key: Hashable, replay: CrossReplay) -> None:
        self._replays[key] = replay
        self._replays.move_to_end(key)
        while len(self._replays) > DEFAULT_REPLAY_ENTRIES:
            self._replays.popitem(last=False)

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


def replay_key(config: ExperimentConfig) -> Tuple[str, str, int]:
    """The config's replay-memo key: scenario, canonical kwargs, seed.

    Exactly what determines the cross-traffic streams.  δ, duration, and
    probe sizes are left out (cross traffic is open-loop and independent
    of the probes — the point of sharing one replay across a δ-stack);
    the horizon is handled by the memo's covers-semantics.  The memo never
    outlives its process, so the key needs no code-version salt.
    """
    return (config.scenario,
            json.dumps(config.scenario_kwargs, sort_keys=True, default=repr),
            int(config.seed))


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


def _exact_pass(direction: DirectionModel, cross_times: np.ndarray,
                cross_bits: np.ndarray, live_probe_times: np.ndarray,
                probe_bits: float, end_time: float,
                ) -> Optional[Tuple[np.ndarray, dict]]:
    """One vectorized Lindley pass when the buffer provably never drops.

    Merges cross packets and probes per-packet (no aggregation at all),
    computes every wait with one :func:`lindley_waits` call, and checks a
    conservative no-overflow certificate: the in-system population at
    each arrival — which upper-bounds the *waiting* occupancy the event
    queue's drop test actually uses — never exceeds the capacity.  When
    the certificate holds, no arrival can drop, so the vectorized waits
    are the exact event-mode waits and the whole per-arrival loop is
    skipped.  Returns ``None`` when the certificate fails (the caller
    falls back to the sequential :class:`FluidQueue` pass, which handles
    drops exactly).
    """
    n_cross = cross_times.size
    n_probe = live_probe_times.size
    total = n_cross + n_probe
    if total == 0:
        return np.empty(0), {
            "arrivals": 0.0, "drops": 0.0, "departures": 0.0,
            "loss_fraction": 0.0, "occupancy_mean_pkts": 0.0,
            "occupancy_max_pkts": 0.0, "occupancy_mean_bytes": 0.0,
        }
    # Both inputs are already sorted (cross arrivals are FIFO departures
    # plus constants; probe arrivals inherit the send order through FIFO
    # stages), so one searchsorted merge replaces the per-cell argsort:
    # ``side="right"`` keeps cross packets ahead of a same-instant probe,
    # matching the sequential pass's "batches at <= t go first" rule, and
    # the +arange offset keeps equal-time probes in send order — exactly
    # the stable-argsort ordering.
    slots = (np.searchsorted(cross_times, live_probe_times, side="right")
             + np.arange(n_probe))
    probe_mask = np.zeros(total, dtype=bool)
    probe_mask[slots] = True
    times = np.empty(total)
    bits = np.empty(total)
    times[probe_mask] = live_probe_times
    bits[probe_mask] = probe_bits
    times[~probe_mask] = cross_times
    bits[~probe_mask] = cross_bits
    rate = direction.rate_bps
    service = bits / rate
    gaps = np.empty_like(times)
    gaps[:-1] = np.diff(times)
    gaps[-1] = 0.0
    waits = lindley_waits(service, gaps)
    starts = times + waits
    departs = starts + service
    population = np.arange(1, total + 1)
    # Strict "departed before" undercounts departures on ties, so the
    # in-system count (self included) is an upper bound on what the
    # event queue's waiting+1 test sees.
    in_system = population - np.searchsorted(departs, times, side="left")
    if direction.queue_mode == MODE_PACKETS:
        if int(in_system.max()) > direction.capacity:
            return None
    else:
        cumulative = np.concatenate([[0.0], np.cumsum(bits)])
        in_system_bits = (cumulative[population]
                          - cumulative[population - in_system])
        if bits_to_bytes(float(in_system_bits.max())) > direction.capacity:
            return None
    waiting_span = np.minimum(starts, end_time) - times
    started = np.searchsorted(starts, times, side="right")
    stats = {
        "arrivals": float(total),
        "drops": 0.0,
        "departures": float(np.searchsorted(departs, end_time,
                                            side="right")),
        "loss_fraction": 0.0,
        "occupancy_mean_pkts": float(waiting_span.sum()) / end_time,
        "occupancy_max_pkts": float((population - started).max()),
        "occupancy_mean_bytes": bits_to_bytes(
            float((bits * waiting_span).sum())) / end_time,
    }
    return waits[probe_mask], stats


def _queue_pass(direction: DirectionModel, probe_times: np.ndarray,
                alive: np.ndarray, probe_bits: float,
                end_time: float) -> Tuple[np.ndarray, dict]:
    """Run one bottleneck: merged cross arrivals + probes, in time order.

    Returns the per-probe waits (zero for probes that never arrive) and
    the queue's statistics dict.  ``alive`` is updated in place with
    queue drops.  Tries the vectorized no-drop pass first; only when the
    buffer could overflow does the sequential :class:`FluidQueue` walk
    run — per packet, never aggregated, because near a full buffer the
    admission decision of every single arrival matters and coarse
    batches would change which packets drop.
    """
    keep = direction.cross_times <= end_time
    cross_times = direction.cross_times[keep]
    cross_bits = direction.cross_bits[keep]
    live_probe_times = probe_times[alive]
    waits = np.zeros(probe_times.shape)
    exact = _exact_pass(direction, cross_times, cross_bits,
                        live_probe_times, probe_bits, end_time)
    if exact is not None:
        waits[alive] = exact[0]
        return waits, exact[1]

    queue = FluidQueue(direction.rate_bps, direction.capacity,
                       mode=direction.queue_mode)
    # Cross arrivals at times <= the probe's arrival go first (matching
    # event order, where the probe joins the queue behind them);
    # precomputing the per-probe cursor targets and walking plain lists
    # keeps the hot loop free of per-element numpy scalar boxing.
    targets = np.searchsorted(cross_times, live_probe_times,
                              side="right").tolist()
    cross_times = cross_times.tolist()
    cross_bits = cross_bits.tolist()
    offer = queue.offer
    cursor = 0
    for index, at, target in zip(np.flatnonzero(alive).tolist(),
                                 live_probe_times.tolist(), targets):
        while cursor < target:
            offer(cross_times[cursor], cross_bits[cursor])
            cursor += 1
        queue.advance(at)
        waits[index] = queue.workload_seconds
        if offer(at, probe_bits) == 0:
            alive[index] = False
    total = len(cross_times)
    while cursor < total:
        offer(cross_times[cursor], cross_bits[cursor])
        cursor += 1
    queue.advance(end_time)
    return waits, queue.stats(end_time)


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
    :func:`fastforward_ineligibilities`) runs the runner's own event body
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
        :func:`replay_key`; every cell still slices its own exact prefix,
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
    reasons = fastforward_ineligibilities(scenario)
    if reasons:
        scenario.start_traffic(at=0.0)
        return event_result(scenario, config, fallback_reasons=reasons)

    network = scenario.network
    count = config.count
    wire_bytes = packetfmt.PROBE_PAYLOAD_BYTES + UDP_WIRE_OVERHEAD_BYTES
    probe_bits = float(bytes_to_bits(wire_bytes))
    end_time = cell_horizon(config)

    build_horizon = max(end_time, replay_horizon or 0.0)
    replay: Optional[CrossReplay] = None
    key: Optional[Tuple[str, str, int]] = None
    if memo is not None:
        key = replay_key(config)
        replay = memo.get(key, end_time)
    if replay is None:
        from repro.obs.spans import PHASE_REPLAY, optional_span
        with optional_span(tracer, "replay", PHASE_REPLAY):
            replay = build_cross_replay(scenario, build_horizon)
        if memo is not None and key is not None:
            memo.put(key, replay)

    fwd_path = network.path(scenario.source, scenario.echo)
    rev_path = network.path(scenario.echo, scenario.source)
    directions = []
    for path, bottleneck, stream in (
            (fwd_path, scenario.bottleneck_fwd, replay.streams[0]),
            (rev_path, scenario.bottleneck_rev, replay.streams[1])):
        before, after = _fixed_segments(network, path, bottleneck,
                                        wire_bytes)
        pre, post = _fault_stages(network, path, bottleneck)
        cross_times, cross_bits = slice_stream(stream, end_time)
        directions.append(DirectionModel(
            label=bottleneck.name, rate_bps=bottleneck.rate_bps,
            capacity=bottleneck.queue.capacity,
            queue_mode=bottleneck.queue.mode,
            service=transmission_delay(wire_bytes, bottleneck.rate_bps),
            before=before, after=after, pre_faults=pre, post_faults=post,
            cross_times=cross_times, cross_bits=cross_bits))
    fwd, rev = directions

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
    waits_fwd, stats_fwd = _queue_pass(fwd, arrivals_fwd, alive, probe_bits,
                                       end_time)
    exits_fwd = arrivals_fwd + waits_fwd + fwd.service
    _apply_stages(fwd.post_faults, alive)

    arrivals_rev = exits_fwd + fwd.after + rev.before
    _apply_stages(rev.pre_faults, alive)
    waits_rev, stats_rev = _queue_pass(rev, arrivals_rev, alive, probe_bits,
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
        payload_bytes=packetfmt.PROBE_PAYLOAD_BYTES, wire_bytes=wire_bytes,
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
        fwd.label: stats_fwd,
        rev.label: stats_rev,
    }
    return ExperimentResult(trace=trace, queue_stats=queue_stats,
                            mode_used="analytic", fallback_reasons=[],
                            scenario=scenario)
