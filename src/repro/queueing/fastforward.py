"""Fast-forward engine for a single drop-tail bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is frequently overkill.  The event engine's
interface computes each transmission's finish as the chain
``f_k = max(a_k, f_{k-1}) + bits_k / rate`` (:mod:`repro.net.link`); this
module replays that chain for the analytic execution mode:

* :func:`bottleneck_pass` — one bottleneck's whole window: it merges the
  cross arrivals and probes that arrive by ``end_time`` into one stream
  (the event engine's tie order), then either proves with a vectorized
  certificate that the buffer never overflows, making the closed-form
  :func:`fifo_waits` its answer, or runs :func:`drop_tail_walk` over the
  same stream.
* :func:`drop_tail_walk` — the event engine's
  :class:`~repro.net.link.Interface` and
  :class:`~repro.net.queue.DropTailQueue` replayed in one loop with the
  queue state in locals: the same finish chain, admission test,
  dequeue-counted departures and occupancy integrals, float for float.
  The tests in ``tests/queueing`` feed the event engine's own interface
  and queue the same streams and compare them bit for bit.
* :func:`fifo_waits` — the vectorized
  :func:`repro.analysis.lindley.lindley_waits` applied to an arrival
  stream through an infinite FIFO: the certified pass, the one closed
  form left.

The experiments layer (:mod:`repro.experiments.fastforward`) extracts
calibrated scenarios into these functions.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_PACKETS, queue_summary
from repro.units import BITS_PER_BYTE, bits_to_bytes


def fifo_waits(arrival_times: Sequence[float], sizes_bits: Sequence[float],
               rate_bps: float) -> np.ndarray:
    """Queueing waits of a sorted arrival stream through an infinite FIFO.

    One vectorized :func:`~repro.analysis.lindley.lindley_waits` call:
    service times are ``sizes_bits / rate_bps`` and inter-arrival times
    come from the (sorted) arrival instants.
    """
    times = np.asarray(arrival_times, dtype=float)
    bits = np.asarray(sizes_bits, dtype=float)
    if times.shape != bits.shape:
        raise ConfigurationError(
            f"arrival/size lengths differ: {times.shape} vs {bits.shape}")
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    if times.size == 0:
        return np.empty(0)
    # The appended instant makes the last gap 0.0, unused for the last
    # customer's wait.
    gaps = np.diff(times, append=times[-1])
    if np.any(gaps < 0):
        raise ConfigurationError("arrival times must be sorted")
    return lindley_waits(bits / rate_bps, gaps)


def bottleneck_pass(cross_times: np.ndarray, cross_bits: np.ndarray,
                    probe_times: np.ndarray, probe_bits: float,
                    end_time: float, rate_bps: float, capacity: int,
                    mode: str) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Run one drop-tail bottleneck over its window ``[0, end_time]``.

    ``cross_times``/``cross_bits`` are the cross packets' sorted arrival
    instants and wire bits; ``probe_times`` are the sorted arrival
    instants of the probes that reach the queue, ``probe_bits`` each.
    Packets of either kind after ``end_time`` never arrive.  ``rate_bps``,
    ``capacity`` and ``mode`` are the bottleneck's.  Returns each probe's
    exit instant (the finish of its transmission, NaN when it never
    leaves), whether the queue admitted it (False for a probe after
    ``end_time``), and the queue statistics
    (:func:`~repro.net.queue.queue_summary`).

    The two streams are merged once.  Both are already sorted, so one
    ``searchsorted`` merge replaces an argsort: ``side="right"`` puts
    cross packets ahead of a same-instant probe (in event order the probe
    joins the queue behind them), and the ``+arange`` offset keeps
    equal-time probes in send order — exactly the stable-argsort order.

    The merged stream first takes one :func:`fifo_waits` pass with a
    conservative no-overflow certificate: the in-system population at
    each arrival — which upper-bounds the *waiting* occupancy the event
    queue's drop test actually uses — never exceeds the capacity.  When
    it holds, no arrival can drop, and each exit is its start plus its
    transmission time.  Otherwise :func:`drop_tail_walk` replays the event
    queue over the same stream, because near a full buffer the admission
    decision of every single arrival matters.  The certificate is first
    tried at the longest-waiting arrival alone, which on a queue that
    drops usually fails it without the full pass.
    """
    cross_cut = int(np.searchsorted(cross_times, end_time, side="right"))
    cross_times = cross_times[:cross_cut]
    cross_bits = cross_bits[:cross_cut]
    exits = np.full(probe_times.size, np.nan)
    admitted = np.zeros(probe_times.size, dtype=bool)
    n_probe = int(np.searchsorted(probe_times, end_time, side="right"))
    probe_times = probe_times[:n_probe]
    total = cross_times.size + n_probe
    if total == 0:
        return exits, admitted, queue_summary(0, 0, 0, 0.0, 0.0, 0.0)
    slots = (np.searchsorted(cross_times, probe_times, side="right")
             + np.arange(n_probe))
    probe_mask = np.zeros(total, dtype=bool)
    probe_mask[slots] = True
    times = np.empty(total)
    bits = np.empty(total)
    times[probe_mask] = probe_times
    bits[probe_mask] = probe_bits
    times[~probe_mask] = cross_times
    bits[~probe_mask] = cross_bits

    waits = fifo_waits(times, bits, rate_bps)
    starts = times + waits
    departs = starts + bits / rate_bps
    cumulative = None if mode == MODE_PACKETS \
        else np.concatenate([[0.0], np.cumsum(bits)])
    # The longest wait marks the most crowded arrival on a loaded queue:
    # when the in-system count there alone already exceeds the capacity,
    # so does the maximum over all arrivals, and the walk starts without
    # the full certificate pass.  Both read the same float arrays, so
    # the decision is the full pass's.
    peak = int(np.argmax(waits))
    certified = _peak_load(
        np.array([peak + 1]), times[peak:peak + 1], departs,
        cumulative) <= capacity
    if certified:
        population = np.arange(1, total + 1)
        certified = _peak_load(population, times, departs,
                               cumulative) <= capacity
    if not certified:
        # Plain lists keep the walk free of per-element numpy scalar boxing.
        walk = drop_tail_walk(times.tolist(), bits.tolist(),
                              probe_mask.tolist(), end_time, rate_bps,
                              capacity, mode)
        exits[:n_probe] = walk.exits
        admitted[:n_probe] = walk.admitted
        return exits, admitted, walk.stats
    waiting_span = np.minimum(starts, end_time) - times
    started = np.searchsorted(starts, times, side="right")
    # A departure is a transmission start, as the event queue counts
    # dequeues; one packet crossing an idle link already counts as held.
    stats = queue_summary(
        total, 0, np.searchsorted(starts, end_time, side="right"),
        float(waiting_span.sum()) / end_time,
        max(int((population - started).max()), 1),
        bits_to_bytes(float((bits * waiting_span).sum())) / end_time)
    exits[:n_probe] = departs[probe_mask]
    admitted[:n_probe] = True
    return exits, admitted, stats


def _peak_load(population: np.ndarray, times: np.ndarray,
               departs: np.ndarray,
               cumulative: Optional[np.ndarray]) -> float:
    """The largest in-system load (packets, or bytes) at the given arrivals.

    ``population`` holds each arrival's 1-based index in the merged
    stream and ``times`` its instant; ``departs`` and ``cumulative`` (the
    running bit sum, ``None`` in packet mode) cover the whole stream.
    Strict "departed before" undercounts departures on ties, so the
    in-system count (self included) is an upper bound on what the event
    queue's waiting+1 test sees.
    """
    in_system = population - np.searchsorted(departs, times, side="left")
    if cumulative is None:
        return int(in_system.max())
    in_system_bits = (cumulative[population]
                      - cumulative[population - in_system])
    return bits_to_bytes(float(in_system_bits.max()))


class FluidQueue:
    """What one :func:`drop_tail_walk` returns.

    ``exits`` and ``admitted`` hold, for each flagged probe, its exit
    instant (NaN when it dropped) and whether the queue took it;
    ``stats`` is the queue's :func:`~repro.net.queue.queue_summary`.  One
    is built per walk, so counting constructions counts walks
    (perfbench's ``queueing.fluidqueue.walks`` layer metric does).
    """

    __slots__ = ("exits", "admitted", "stats")

    def __init__(self, exits: List[float], admitted: List[bool],
                 stats: dict) -> None:
        self.exits = exits
        self.admitted = admitted
        self.stats = stats


def drop_tail_walk(times: Sequence[float], bits: Sequence[float],
                   probes: Sequence[bool], end_time: float, rate_bps: float,
                   capacity: int, mode: str) -> FluidQueue:
    """Replay the event engine's interface and drop-tail queue on a stream.

    ``times``/``bits``/``probes`` describe one packet each, in arrival
    order (equal times keep stream order), none after ``end_time``.  The
    transmitter is :class:`~repro.net.link.Interface`'s: a packet that
    finds it idle starts at once (in byte mode a packet larger than the
    whole buffer drops even then), and every admitted packet finishes at
    ``f_k = max(a_k, f_{k-1}) + bits_k / rate_bps``.  The buffer is
    :class:`~repro.net.queue.DropTailQueue`'s: an arrival at a busy
    transmitter drops when the waiting packets (or their bytes) plus
    itself would exceed ``capacity``; a waiting packet leaves the buffer,
    and counts as a departure, when its transmission starts; the
    occupancy integrals gain the count held since the previous change at
    every admission to the buffer and every start out of it, in time
    order.  A start at an arrival's own instant goes first.  After the
    last arrival the queue runs until ``end_time``.

    Returns, for each packet flagged in ``probes``, its exit instant (its
    finish; NaN when it dropped) and whether it was admitted, plus the
    queue statistics over ``[0, end_time]``.  This is the analytic mode's
    hottest loop, so the queue state lives in locals for the whole stream.
    """
    if not len(times) == len(bits) == len(probes):
        raise ConfigurationError(
            f"stream lengths differ: {len(times)} times, "
            f"{len(bits)} sizes, {len(probes)} probe flags")
    if end_time <= 0:
        raise ConfigurationError(
            f"end_time must be positive, got {end_time}")
    if len(times) and times[-1] > end_time:
        raise ConfigurationError(
            f"an arrival at {times[-1]} is after end_time {end_time}")
    packets_mode = mode == MODE_PACKETS
    # Service-start instants and byte sizes of the waiting packets, FIFO.
    starts: deque = deque()
    sizes: deque = deque()
    pop_start = starts.popleft
    pop_size = sizes.popleft
    push_start = starts.append
    push_size = sizes.append
    # Finish of the last admitted packet: the transmitter is idle from it.
    finish = 0.0
    waiting = 0
    waiting_bytes = 0.0
    drops = 0
    departures = 0
    # The integrals up to the last change, and the packet peak.  An idle
    # crossing needs no integration: the queue holds nothing until the
    # next admission, whose span is then multiplied by zero.
    last_change = 0.0
    packet_seconds = 0.0
    byte_seconds = 0.0
    max_packets = 0
    exits: List[float] = []
    admitted: List[bool] = []
    nan = math.nan
    # A zero-size sentinel at end_time closes the stream: its dequeues
    # are the final starts up to end_time, and its size check ends the
    # loop, so the hot loop carries no extra end-of-stream test.
    for at, size, probe in chain(zip(times, bits, probes),
                                 ((end_time, 0.0, None),)):
        while waiting and starts[0] <= at:
            start = pop_start()
            span = start - last_change
            packet_seconds += waiting * span
            byte_seconds += waiting_bytes * span
            last_change = start
            waiting -= 1
            waiting_bytes -= pop_size()
            departures += 1
        if size <= 0:
            if probe is None:
                break
            raise ConfigurationError(
                f"packet bits must be positive, got {size}")
        size_bytes = size / BITS_PER_BYTE
        if at >= finish:
            # Idle transmitter, empty buffer: the packet crosses at once.
            accepted = packets_mode or size_bytes <= capacity
            if accepted:
                departures += 1
                if not max_packets:
                    max_packets = 1
                finish = at + size / rate_bps
        elif (waiting + 1 if packets_mode
              else waiting_bytes + size_bytes) > capacity:
            accepted = False
        else:
            accepted = True
            span = at - last_change
            packet_seconds += waiting * span
            byte_seconds += waiting_bytes * span
            last_change = at
            push_start(finish)
            push_size(size_bytes)
            waiting += 1
            waiting_bytes += size_bytes
            if waiting > max_packets:
                max_packets = waiting
            finish = finish + size / rate_bps
        if not accepted:
            drops += 1
        if probe:
            exits.append(finish if accepted else nan)
            admitted.append(accepted)
    held_span = end_time - last_change
    return FluidQueue(exits, admitted, queue_summary(
        len(times), drops, departures,
        (packet_seconds + waiting * held_span) / end_time, max_packets,
        (byte_seconds + waiting_bytes * held_span) / end_time))
