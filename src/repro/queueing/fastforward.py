"""Fast-forward engine for a single bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is frequently overkill: between arrivals the
bottleneck queue can be advanced *analytically*.  This module provides
the two pieces the analytic execution mode is built from:

* :class:`FluidQueue` — a drop-tail FIFO advanced in closed form, one
  packet at a time; every ``advance``/``offer`` step is one application
  of Lindley's recurrence ``w' = (w - Δt)^+ + y`` on the queue workload,
  with event-faithful drop-tail semantics (capacity in packets or bytes,
  the in-service packet occupying no buffer slot, exactly like
  :class:`repro.net.queue.DropTailQueue` behind a busy
  :class:`repro.net.link.Interface`).
* :func:`fifo_waits` — the vectorized
  :func:`repro.analysis.lindley.lindley_waits` applied to an arrival
  stream through an infinite FIFO (used for the fast access links
  feeding the bottleneck, which never drop).

The experiments layer (:mod:`repro.experiments.fastforward`) extracts
calibrated scenarios into these primitives.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS
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
    """A drop-tail FIFO advanced analytically between arrivals.

    Mirrors the observable behaviour of a
    :class:`~repro.net.queue.DropTailQueue` behind an
    :class:`~repro.net.link.Interface`: the transmitter serves one packet
    at a time at ``rate_bps``; the packet in service occupies no buffer
    slot; an arriving packet drops when the *waiting* occupancy plus
    itself would exceed ``capacity`` (packets or bytes per ``mode``).

    Work is held as one FIFO entry per waiting packet (its bits);
    :meth:`advance` serves whole packets in closed form — each step is
    Lindley's recurrence on the backlog — so cost is O(packets), not
    O(simulated events).

    Counters (``arrivals``/``drops``/``departures`` and the time-weighted
    occupancy integrals) follow the event queue's accounting so the
    analytic mode can report comparable queue statistics.
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
        self._packets_mode = mode == MODE_PACKETS
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
        self._busy_seconds = 0.0
        self._occupancy_packet_seconds = 0.0
        self._occupancy_bit_seconds = 0.0
        self._occupancy_max_packets = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Time the queue state has been advanced to."""
        return self._now

    @property
    def workload_seconds(self) -> float:
        """Seconds of service ahead of a new arrival (its Lindley wait)."""
        return (self._service_bits + self._waiting_bits) / self.rate_bps

    # ------------------------------------------------------------------
    def advance(self, to_time: float) -> None:
        """Serve work until ``to_time`` (Lindley drain on the backlog).

        This is the analytic mode's hottest loop, so state lives in
        locals for its duration: drop/wait semantics are unchanged from
        the straightforward attribute-at-a-time version (the equivalence
        tests pin them), only the Python overhead per step shrinks.
        """
        now = self._now
        if to_time <= now:
            return
        service_bits = self._service_bits
        entries = self._entries
        if service_bits == 0.0 and not entries:
            # Idle queue: occupancy zero, nothing to integrate.
            self._now = to_time
            return
        rate = self.rate_bps
        busy = self._busy_seconds
        occ_pkt = self._occupancy_packet_seconds
        occ_bit = self._occupancy_bit_seconds
        waiting_packets = self._waiting_packets
        waiting_bits = self._waiting_bits
        departures = self.departures
        while True:
            if service_bits > 0.0:
                finish = now + service_bits / rate
                if finish > to_time:
                    span = to_time - now
                    service_bits -= span * rate
                    busy += span
                    occ_pkt += waiting_packets * span
                    occ_bit += waiting_bits * span
                    break
                span = finish - now
                busy += span
                occ_pkt += waiting_packets * span
                occ_bit += waiting_bits * span
                now = finish
                service_bits = 0.0
                departures += 1
                continue
            if not entries:
                break  # idle, occupancy zero: nothing to integrate
            bits = entries.popleft()
            waiting_packets -= 1
            waiting_bits -= bits
            span = bits / rate
            if now + span <= to_time:
                # The packet waits out its whole service before
                # to_time: drain it in closed form.
                occ_pkt += waiting_packets * span
                occ_bit += waiting_bits * span
                busy += span
                departures += 1
                now += span
                continue
            # The packet outlives the step: it enters service and the
            # in-service branch handles the partial span.
            service_bits = bits
        self._now = to_time
        self._service_bits = service_bits
        self._busy_seconds = busy
        self._occupancy_packet_seconds = occ_pkt
        self._occupancy_bit_seconds = occ_bit
        self._waiting_packets = waiting_packets
        self._waiting_bits = waiting_bits
        self.departures = departures

    # ------------------------------------------------------------------
    def offer(self, at: float, bits: float) -> int:
        """Present one packet at time ``at``; return 1 if accepted, else 0.

        Advances the queue to ``at`` first, so a probe's Lindley wait is
        ``workload_seconds`` read *before* its own ``offer``.  Admission
        follows event-drop semantics: the packet in service holds no
        buffer slot, and an idle transmitter takes the packet straight
        into service.
        """
        if bits <= 0:
            raise ConfigurationError(
                f"packet bits must be positive, got {bits}")
        if at > self._now:
            if self._service_bits > 0.0 or self._entries:
                self.advance(at)
            else:
                self._now = at
        self.arrivals += 1
        idle = self._service_bits == 0.0 and not self._entries
        if self._packets_mode:
            room = self.capacity - self._waiting_packets
        else:
            size_bytes = bits_to_bytes(bits)
            free_bytes = (self.capacity
                          - bits_to_bytes(self._waiting_bits))
            room = int(free_bytes // size_bytes)
            if idle and room == 0 and size_bytes > self.capacity:
                # Even an empty buffer cannot hold this packet.
                idle = False
        if idle:
            self._service_bits = bits
            return 1
        if room < 1:
            self.drops += 1
            return 0
        self._entries.append(bits)
        self._waiting_packets += 1
        self._waiting_bits += bits
        if self._waiting_packets > self._occupancy_max_packets:
            self._occupancy_max_packets = self._waiting_packets
        return 1

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
        loss = self.drops / self.arrivals if self.arrivals else 0.0
        return {
            "arrivals": float(self.arrivals),
            "drops": float(self.drops),
            "departures": float(self.departures),
            "loss_fraction": loss,
            "occupancy_mean_pkts": self._occupancy_packet_seconds / elapsed,
            "occupancy_max_pkts": float(self._occupancy_max_packets),
            "occupancy_mean_bytes": bits_to_bytes(
                self._occupancy_bit_seconds) / elapsed,
        }

    def __repr__(self) -> str:
        return (f"<FluidQueue {self._waiting_packets} pkts waiting of "
                f"{self.capacity} {self.mode}, {self.drops} drops, "
                f"t={self._now:.6f}>")
