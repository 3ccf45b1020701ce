"""Reference oracle for the fused drop-tail walk.

:class:`ReferenceFluidQueue` is the per-packet ``advance``/``offer``
drop-tail queue the analytic engine walked one call at a time before
:func:`repro.queueing.fastforward.drop_tail_walk` fused the loop.  Its
methods are kept verbatim; :func:`reference_walk` drives them the way the
bottleneck pass did (advance to each arrival, read a probe's wait, offer
it, then advance to the end of the window).  Tests compare the fused walk
against it bit for bit.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS, queue_summary
from repro.units import bits_to_bytes


def reference_walk(queue, times, bits, probes, end_time):
    """Walk a merged arrival stream through ``queue`` one call at a time.

    Returns each probe's Lindley wait (the workload read just before its
    own offer) and whether it was admitted, in stream order.
    """
    waits = []
    admitted = []
    for at, size, probe in zip(times, bits, probes):
        if probe:
            queue.advance(at)
            waits.append(queue.workload_seconds)
            admitted.append(queue.offer(at, size) == 1)
        else:
            queue.offer(at, size)
    queue.advance(end_time)
    return waits, admitted


class ReferenceFluidQueue:
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
        return queue_summary(
            self.arrivals, self.drops, self.departures,
            self._occupancy_packet_seconds / elapsed,
            self._occupancy_max_packets,
            bits_to_bytes(self._occupancy_bit_seconds) / elapsed)

    def __repr__(self) -> str:
        return (f"<FluidQueue {self._waiting_packets} pkts waiting of "
                f"{self.capacity} {self.mode}, {self.drops} drops, "
                f"t={self._now:.6f}>")
