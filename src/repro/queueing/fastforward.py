"""Fast-forward engine for a single bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is frequently overkill: between arrivals the
bottleneck queue can be advanced *analytically*.  This module provides
the two pieces the analytic execution mode is built from:

* :class:`FluidQueue` — a drop-tail FIFO whose :meth:`~FluidQueue.walk`
  runs a whole merged arrival stream in one loop with the queue state in
  locals; each arrival is one application of Lindley's recurrence
  ``w' = (w - Δt)^+ + y`` on the queue workload, with event-faithful
  drop-tail semantics (capacity in packets or bytes, the in-service
  packet occupying no buffer slot, exactly like
  :class:`repro.net.queue.DropTailQueue` behind a busy
  :class:`repro.net.link.Interface`).  Its float operations, in order,
  are those of the per-packet ``advance``/``offer`` reference queue in
  ``tests/queueing``, which the tests compare it against bit for bit.
* :func:`fifo_waits` — the vectorized
  :func:`repro.analysis.lindley.lindley_waits` applied to an arrival
  stream through an infinite FIFO (used for the fast access links
  feeding the bottleneck, which never drop).

The experiments layer (:mod:`repro.experiments.fastforward`) extracts
calibrated scenarios into these primitives.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS, queue_summary
from repro.units import bits_to_bytes


def fifo_waits(arrival_times: Sequence[float], sizes_bits: Sequence[float],
               rate_bps: float) -> np.ndarray:
    """Queueing waits of a sorted arrival stream through an infinite FIFO.

    One vectorized :func:`~repro.analysis.lindley.lindley_waits` call:
    service times are ``sizes_bits / rate_bps`` and inter-arrival times
    come from the (sorted) arrival instants.  Used for the fast access
    links whose buffers never overflow in the calibrated scenarios.
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
    if np.any(np.diff(times) < 0):
        raise ConfigurationError("arrival times must be sorted")
    service = bits / rate_bps
    gaps = np.empty_like(times)
    gaps[:-1] = np.diff(times)
    gaps[-1] = 0.0  # unused for the last customer's wait
    return lindley_waits(service, gaps)


class FluidQueue:
    """A drop-tail FIFO walked analytically over a merged arrival stream.

    Mirrors the observable behaviour of a
    :class:`~repro.net.queue.DropTailQueue` behind an
    :class:`~repro.net.link.Interface`: the transmitter serves one packet
    at a time at ``rate_bps``; the packet in service occupies no buffer
    slot; an arriving packet drops when the *waiting* occupancy plus
    itself would exceed ``capacity`` (packets or bytes per ``mode``).

    :meth:`walk` runs a whole sorted arrival stream in one loop: between
    arrivals it serves whole packets in closed form — each step is
    Lindley's recurrence on the backlog — so cost is O(packets), not
    O(simulated events).

    Counters (``arrivals``/``drops`` and the time-weighted occupancy
    integrals) follow the event queue's accounting, and :meth:`stats`
    reports them through the event engine's
    :func:`~repro.net.queue.queue_summary`.  ``departures`` differs: it
    counts service *completions*, while the event queue counts dequeues,
    which are service *starts*, so it is one lower whenever a packet is
    still in service at the end of the window.
    """

    def __init__(self, rate_bps: float, capacity: int,
                 mode: str = MODE_PACKETS) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {rate_bps}")
        if capacity <= 0:
            raise ConfigurationError(
                f"queue capacity must be positive, got {capacity}")
        if mode not in (MODE_PACKETS, MODE_BYTES):
            raise ConfigurationError(f"unknown queue mode {mode!r}")
        self.rate_bps = rate_bps
        self.capacity = capacity
        self.mode = mode
        self._now = 0.0
        #: Remaining bits of the packet currently being transmitted.
        self._service_bits = 0.0
        #: Bits of each waiting packet, FIFO.
        self._entries: deque = deque()
        self._waiting_packets = 0
        self._waiting_bits = 0.0
        self.arrivals = 0
        self.drops = 0
        self.departures = 0
        self._occupancy_packet_seconds = 0.0
        self._occupancy_bit_seconds = 0.0
        self._occupancy_max_packets = 0

    # ------------------------------------------------------------------
    def walk(self, times: Sequence[float], bits: Sequence[float],
             probes: Sequence[bool], end_time: float,
             ) -> Tuple[List[float], List[bool]]:
        """Offer a sorted arrival stream, then serve work until ``end_time``.

        ``times``/``bits``/``probes`` describe one packet each, in arrival
        order (equal times keep stream order).  Returns, for each packet
        flagged in ``probes``, its Lindley wait — the seconds of service
        ahead of it, read just before its own admission — and whether it
        was admitted.  Admission follows event-drop semantics: the packet
        in service holds no buffer slot, an idle transmitter takes the
        packet straight into service, and in byte mode a packet larger
        than the whole buffer drops even at an idle queue.

        This is the analytic mode's hottest loop, so the queue state
        lives in locals for the whole stream and is stored back once; a
        later walk on the same queue continues from that state.
        """
        if not len(times) == len(bits) == len(probes):
            raise ConfigurationError(
                f"stream lengths differ: {len(times)} times, "
                f"{len(bits)} sizes, {len(probes)} probe flags")
        rate = self.rate_bps
        capacity = self.capacity
        packets_mode = self.mode == MODE_PACKETS
        now = self._now
        service_bits = self._service_bits
        entries = self._entries
        popleft = entries.popleft
        append = entries.append
        waiting_packets = self._waiting_packets
        waiting_bits = self._waiting_bits
        drops = self.drops
        departures = self.departures
        occ_pkt = self._occupancy_packet_seconds
        occ_bit = self._occupancy_bit_seconds
        occ_max = self._occupancy_max_packets
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
                            finish = now + service_bits / rate
                            if finish > at:
                                span = at - now
                                service_bits -= span * rate
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
                        span = head / rate
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
                        service_bits -= span * rate
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
                waits.append((service_bits + waiting_bits) / rate)
            idle = service_bits == 0.0 and not waiting_packets
            if packets_mode:
                room = capacity - waiting_packets
            else:
                size_bytes = bits_to_bytes(size)
                free_bytes = capacity - bits_to_bytes(waiting_bits)
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
        self._now = now
        self._service_bits = service_bits
        self._waiting_packets = waiting_packets
        self._waiting_bits = waiting_bits
        self.arrivals += len(times)
        self.drops = drops
        self.departures = departures
        self._occupancy_packet_seconds = occ_pkt
        self._occupancy_bit_seconds = occ_bit
        self._occupancy_max_packets = occ_max
        return waits, admitted

    # ------------------------------------------------------------------
    def stats(self, elapsed: float) -> dict:
        """Queue statistics shaped like the event mode's per-queue dict.

        ``elapsed`` is the total observation window (occupancy means are
        time-weighted over it, like
        :func:`repro.experiments.runner.collect_queue_stats`).
        """
        if elapsed <= 0:
            raise ConfigurationError(
                f"elapsed must be positive, got {elapsed}")
        return queue_summary(
            self.arrivals, self.drops, self.departures,
            self._occupancy_packet_seconds / elapsed,
            self._occupancy_max_packets,
            bits_to_bytes(self._occupancy_bit_seconds) / elapsed)

    def __repr__(self) -> str:
        return (f"<FluidQueue {self._waiting_packets} pkts waiting of "
                f"{self.capacity} {self.mode}, {self.drops} drops, "
                f"t={self._now:.6f}>")
