"""Fast-forward engine for a single drop-tail bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is frequently overkill: between arrivals the
bottleneck queue can be advanced *analytically*.  This module owns that
queue for the analytic execution mode:

* :func:`bottleneck_pass` — one bottleneck's whole window: it merges the
  cross arrivals and probes into one stream (the event engine's tie
  order), then either proves with a vectorized certificate that the
  buffer never overflows, making one Lindley recursion exact, or runs
  :func:`drop_tail_walk` over the same stream.
* :func:`drop_tail_walk` — a drop-tail FIFO walked per packet in one
  loop with the queue state in locals; each arrival is one application
  of Lindley's recurrence ``w' = (w - Δt)^+ + y`` on the queue workload,
  with event-faithful drop-tail semantics (capacity in packets or bytes,
  the in-service packet occupying no buffer slot, exactly like
  :class:`repro.net.queue.DropTailQueue` behind a busy
  :class:`repro.net.link.Interface`).  Its float operations, in order,
  are those of the per-packet ``advance``/``offer`` reference queue in
  ``tests/queueing``, which the tests compare it against bit for bit.
* :func:`fifo_waits` — the vectorized
  :func:`repro.analysis.lindley.lindley_waits` applied to an arrival
  stream through an infinite FIFO (the certificate pass, and the fast
  access links feeding the bottleneck, which never drop).

The experiments layer (:mod:`repro.experiments.fastforward`) extracts
calibrated scenarios into these functions.
"""

from __future__ import annotations

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
    instants and wire bits (those after ``end_time`` never arrive);
    ``probe_times`` are the sorted arrival instants of the probes that
    reach the queue, ``probe_bits`` each.  ``rate_bps``, ``capacity``
    and ``mode`` are the bottleneck's.  Returns each probe's Lindley wait,
    whether the queue admitted it, and the queue statistics
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
    it holds, no arrival can drop, so those waits are the exact
    event-mode waits.  Otherwise :func:`drop_tail_walk` runs the same
    stream per packet, never aggregated, because near a full buffer the
    admission decision of every single arrival matters.  The certificate
    is first tried at the longest-waiting arrival alone, which on a
    queue that drops usually fails it without the full pass.
    """
    keep = cross_times <= end_time
    cross_times = cross_times[keep]
    cross_bits = cross_bits[keep]
    n_probe = probe_times.size
    total = cross_times.size + n_probe
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
    if total == 0:
        return (np.empty(0), np.empty(0, dtype=bool),
                queue_summary(0, 0, 0, 0.0, 0.0, 0.0))

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
        return (np.asarray(walk.waits, dtype=float),
                np.asarray(walk.admitted, dtype=bool), walk.stats)
    waiting_span = np.minimum(starts, end_time) - times
    started = np.searchsorted(starts, times, side="right")
    stats = queue_summary(
        total, 0, np.searchsorted(departs, end_time, side="right"),
        float(waiting_span.sum()) / end_time,
        (population - started).max(),
        bits_to_bytes(float((bits * waiting_span).sum())) / end_time)
    return waits[probe_mask], np.ones(n_probe, dtype=bool), stats


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

    ``waits`` and ``admitted`` hold, for each flagged probe, its Lindley
    wait and whether the queue took it; ``stats`` is the queue's
    :func:`~repro.net.queue.queue_summary`.  One is built per walk, so
    counting constructions counts walks (perfbench's
    ``queueing.fluidqueue.walks`` layer metric does).
    """

    __slots__ = ("waits", "admitted", "stats")

    def __init__(self, waits: List[float], admitted: List[bool],
                 stats: dict) -> None:
        self.waits = waits
        self.admitted = admitted
        self.stats = stats


def drop_tail_walk(times: Sequence[float], bits: Sequence[float],
                   probes: Sequence[bool], end_time: float, rate_bps: float,
                   capacity: int, mode: str) -> FluidQueue:
    """Walk a sorted arrival stream through an empty drop-tail FIFO.

    The transmitter serves one packet at a time at ``rate_bps``; the
    packet in service occupies no buffer slot; an arriving packet drops
    when the *waiting* occupancy plus itself would exceed ``capacity``
    (packets or bytes per ``mode``), and in byte mode a packet larger
    than the whole buffer drops even at an idle queue.  Between arrivals
    whole packets are served in closed form — each step is Lindley's
    recurrence on the backlog — so cost is O(packets), not O(simulated
    events); after the last arrival the queue serves until ``end_time``.

    ``times``/``bits``/``probes`` describe one packet each, in arrival
    order (equal times keep stream order).  Returns, for each packet
    flagged in ``probes``, its Lindley wait — the seconds of service
    ahead of it, read just before its own admission — and whether it was
    admitted, plus the queue statistics over ``[0, end_time]``.  Counters
    and the time-weighted occupancy integrals follow the event queue's
    accounting except ``departures``: it counts service *completions*,
    while the event queue counts dequeues, which are service *starts*, so
    it is one lower whenever a packet is still in service at
    ``end_time``.

    This is the analytic mode's hottest loop, so the queue state lives in
    locals for the whole stream.
    """
    if not len(times) == len(bits) == len(probes):
        raise ConfigurationError(
            f"stream lengths differ: {len(times)} times, "
            f"{len(bits)} sizes, {len(probes)} probe flags")
    if end_time <= 0:
        raise ConfigurationError(
            f"end_time must be positive, got {end_time}")
    packets_mode = mode == MODE_PACKETS
    now = 0.0
    # Remaining bits of the packet currently being transmitted.
    service_bits = 0.0
    # Bits of each waiting packet, FIFO.
    entries: deque = deque()
    popleft = entries.popleft
    append = entries.append
    waiting_packets = 0
    waiting_bits = 0.0
    drops = 0
    departures = 0
    occ_pkt = 0.0
    occ_bit = 0.0
    occ_max = 0
    waits: List[float] = []
    admitted: List[bool] = []
    # A zero-size sentinel at end_time closes the stream: its drain is
    # the final service up to end_time, and its size check ends the
    # loop, so the hot loop carries no extra end-of-stream test.
    for at, size, probe in chain(zip(times, bits, probes),
                                 ((end_time, 0.0, None),)):
        if at > now:
            if service_bits > 0.0 or waiting_packets:
                # Serve until ``at`` (Lindley drain on the backlog).
                while True:
                    if service_bits > 0.0:
                        finish = now + service_bits / rate_bps
                        if finish > at:
                            span = at - now
                            service_bits -= span * rate_bps
                            occ_pkt += waiting_packets * span
                            occ_bit += waiting_bits * span
                            break
                        span = finish - now
                        occ_pkt += waiting_packets * span
                        occ_bit += waiting_bits * span
                        now = finish
                        service_bits = 0.0
                        departures += 1
                    if not waiting_packets:
                        break  # idle, occupancy zero
                    head = popleft()
                    waiting_packets -= 1
                    waiting_bits -= head
                    span = head / rate_bps
                    if now + span <= at:
                        # The packet waits out its whole service
                        # before ``at``: drain it in closed form.
                        occ_pkt += waiting_packets * span
                        occ_bit += waiting_bits * span
                        departures += 1
                        now += span
                        continue
                    # The packet outlives the step: it enters service
                    # for the rest of it (its finish is past ``at``,
                    # so only the partial span remains).
                    service_bits = head
                    span = at - now
                    service_bits -= span * rate_bps
                    occ_pkt += waiting_packets * span
                    occ_bit += waiting_bits * span
                    break
            now = at
        if size <= 0:
            if probe is None:
                break
            raise ConfigurationError(
                f"packet bits must be positive, got {size}")
        if probe:
            waits.append((service_bits + waiting_bits) / rate_bps)
        idle = service_bits == 0.0 and not waiting_packets
        if packets_mode:
            room = capacity - waiting_packets
        else:
            # bits_to_bytes, inlined: two calls per arrival cost more
            # than the division.
            size_bytes = size / BITS_PER_BYTE
            free_bytes = capacity - waiting_bits / BITS_PER_BYTE
            room = int(free_bytes // size_bytes)
            if idle and room == 0 and size_bytes > capacity:
                # Even an empty buffer cannot hold this packet.
                idle = False
        if idle:
            service_bits = size
            accepted = True
        elif room < 1:
            drops += 1
            accepted = False
        else:
            append(size)
            waiting_packets += 1
            waiting_bits += size
            if waiting_packets > occ_max:
                occ_max = waiting_packets
            accepted = True
        if probe:
            admitted.append(accepted)
    return FluidQueue(waits, admitted, queue_summary(
        len(times), drops, departures, occ_pkt / end_time, occ_max,
        bits_to_bytes(occ_bit) / end_time))
