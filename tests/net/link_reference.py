"""A reference interface that executes an event at every finish instant.

:class:`TwoEventInterface` is the interface model the event engine ran
before a link scheduled its ``tx-done`` event only when a packet waits or
an observer listens: two events per transmission, the finish event
scheduled at the start, the delivery event scheduled at the finish, and
counters updated when the finish event runs.  The differential tests in
``tests/net/test_idle_path.py`` drive it and
:class:`repro.net.link.Interface` with the same arrivals and compare
their counters, queue statistics and delivery times with ``==``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.hooks import LifecycleObserver
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.kernel import Simulator


class TwoEventInterface:
    """One link, one ``tx-done`` and one delivery event per packet."""

    def __init__(self, sim: Simulator, node, rate_bps: float,
                 prop_delay: float, queue: DropTailQueue) -> None:
        self._sim = sim
        self.node = node
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.peer = None
        self.egress_faults: list = []
        self.transmitted = 0
        self.transmitted_bits = 0
        self._created_at = sim.now
        self._busy_since = 0.0
        self._busy_time = 0.0
        self.lifecycle: Optional[LifecycleObserver] = None
        self._transmitting: Optional[Packet] = None
        self._inflight: deque[Packet] = deque()

    def attach_peer(self, peer) -> None:
        self.peer = peer

    def add_egress_fault(self, fault) -> None:
        self.egress_faults.append(fault)

    def send(self, packet: Packet) -> bool:
        queue = self.queue
        idle = self._transmitting is None
        admitted = queue.pass_through(packet) if idle \
            else queue.enqueue(packet)
        if self.lifecycle is not None:
            if admitted:
                self.lifecycle.on_enqueued(queue, packet)
            else:
                self.lifecycle.on_queue_drop(queue, packet)
        if admitted and idle:
            self._start_transmission(packet)
        return admitted

    def _start_transmission(self, packet: Packet) -> None:
        now = self._sim.now
        self._busy_since = now
        start = now
        for fault in self.egress_faults:
            start = max(start, fault.stalled_until(now))
        self._transmitting = packet
        self._sim.call_at(start + packet.size_bits / self.rate_bps,
                          self._transmission_done)
        if self.lifecycle is not None:
            self.lifecycle.on_tx_start(self, packet)

    def _transmission_done(self) -> None:
        packet = self._transmitting
        assert packet is not None
        self._transmitting = None
        now = self._sim.now
        self.transmitted += 1
        self.transmitted_bits += packet.size_bits
        self._busy_time += now - self._busy_since
        self._inflight.append(packet)
        self._sim.call_at(now + self.prop_delay, self._deliver)
        if self.lifecycle is not None:
            self.lifecycle.on_tx_done(self, packet)
        if self.queue._packets:
            self._start_transmission(self.queue.dequeue())

    def _deliver(self) -> None:
        packet = self._inflight.popleft()
        if self.lifecycle is not None:
            self.lifecycle.on_delivered(self, packet)
        self.peer.handle_packet(packet, ingress=self)

    @property
    def busy(self) -> bool:
        return self._transmitting is not None

    @property
    def busy_time(self) -> float:
        accumulated = self._busy_time
        if self._transmitting is not None:
            accumulated += self._sim.now - self._busy_since
        return accumulated

    def utilization_estimate(self) -> float:
        elapsed = self._sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
