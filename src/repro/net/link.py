"""Network interfaces and links.

An :class:`Interface` is the transmitting side of a unidirectional link: it
owns the output :class:`~repro.net.queue.DropTailQueue`, serializes packets
at the link rate, applies fault models, and delivers packets to the peer
node after the propagation delay.  A bidirectional link between two nodes is
simply a pair of interfaces, one on each node (see
:meth:`repro.net.routing.Network.link`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.net.faults import FaultModel
from repro.net.hooks import LifecycleObserver
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.kernel import Simulator, restore_attributes
from repro.units import seconds_to_ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.node import Node


def check_link_parameters(name: str, rate_bps: float,
                          prop_delay: float) -> None:
    """Reject a link rate or propagation delay no run could use.

    The rate must be finite and positive, the delay finite and >= 0.  A
    NaN passes both plain comparisons (``nan <= 0`` is false), so it is
    caught here rather than as a scheduling error at the first send.
    """
    if not (math.isfinite(rate_bps) and rate_bps > 0):
        raise ConfigurationError(
            f"link {name}: rate must be finite and positive, "
            f"got {rate_bps!r}")
    if not (math.isfinite(prop_delay) and prop_delay >= 0):
        raise ConfigurationError(
            f"link {name}: propagation delay must be finite and >= 0, "
            f"got {prop_delay!r}")


class Interface:
    """The output port of a node onto one unidirectional link.

    Parameters
    ----------
    sim:
        Owning simulator.
    node:
        The node this interface belongs to (the transmitter).
    rate_bps:
        Link bandwidth in bits per second.
    prop_delay:
        One-way propagation delay in seconds.
    queue:
        Output buffer; packets wait here while the transmitter is busy.
    name:
        Diagnostic label (defaults to ``node->peer`` when attached).
    """

    __setstate__ = restore_attributes

    def __init__(self, sim: Simulator, node: "Node", rate_bps: float,
                 prop_delay: float, queue: DropTailQueue,
                 name: str = "") -> None:
        check_link_parameters(name or f"{node.name}->?", rate_bps,
                              prop_delay)
        self._sim = sim
        self.node = node
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.name = name
        self.peer: Optional["Node"] = None
        self.egress_faults: list[FaultModel] = []
        self.fault_drops = 0
        self._created_at = sim.now
        #: Optional packet-lifecycle observer (see repro.net.hooks); it
        #: also hears this interface's queue milestones.
        self.lifecycle: Optional[LifecycleObserver] = None
        # Hot-path state (see DESIGN.md, "One event per idle hop").  A
        # transmission's finish and delivery instants are known the moment
        # it starts, so its delivery event is scheduled then; the finish
        # instant gets a ``tx-done`` event (``_tx_pending``) only when a
        # packet waits behind it or an observer hears ``on_tx_done``.  The
        # transmitter is serial and the propagation delay constant, so
        # deliveries complete in start order: a FIFO of in-flight packets
        # and bound callbacks allocated once here replace a closure per
        # event.  ``_started`` and ``_started_bits`` count every
        # transmission begun, ``_busy_time`` the busy spans of all but the
        # last, which runs from ``_busy_since`` (a stall included) to
        # ``_busy_until``; the counter properties add it in from its
        # finish instant on.
        self._busy_since = 0.0
        self._busy_until = 0.0
        self._busy_time = 0.0
        self._started = 0
        self._started_bits = 0
        self._in_service: Optional[Packet] = None
        self._tx_pending = False
        self._inflight: deque[Packet] = deque()
        self._tx_done_ref = self._transmission_done
        self._deliver_ref = self._deliver
        self._tx_label = f"tx-done {name}"
        self._deliver_label = f"deliver {name}"

    # ------------------------------------------------------------------
    def attach_peer(self, peer: "Node") -> None:
        """Set the receiving node of this link."""
        self.peer = peer
        if not self.name:
            self.name = f"{self.node.name}->{peer.name}"
        self._tx_label = f"tx-done {self.name}"
        self._deliver_label = f"deliver {self.name}"

    def add_egress_fault(self, fault: FaultModel) -> None:
        """Drop/stall packets as they are transmitted."""
        self.egress_faults.append(fault)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False if it was dropped."""
        if self.peer is None:
            raise ConfigurationError(
                f"interface {self.name!r} has no peer attached")
        for fault in self.egress_faults:
            if fault.drops(packet, self._sim):
                self.fault_drops += 1
                if self.lifecycle is not None:
                    self.lifecycle.on_fault_drop(self, packet)
                return False
        queue = self.queue
        idle = not self._tx_pending and self._sim.now >= self._busy_until
        # An idle transmitter means an empty queue: the packet crosses it in
        # one call that keeps the arrival/occupancy statistics exact.
        admitted = queue.pass_through(packet) if idle \
            else queue.enqueue(packet)
        if self.lifecycle is not None:
            if admitted:
                self.lifecycle.on_enqueued(queue, packet)
            else:
                self.lifecycle.on_queue_drop(queue, packet)
        if admitted:
            if idle:
                self._start_transmission(packet)
            elif not self._tx_pending:
                # The first packet to wait behind the one in service: the
                # transmitter takes it at that packet's finish instant.
                self._tx_pending = True
                self._sim.call_at(self._busy_until, self._tx_done_ref,
                                  label=self._tx_label)
        return admitted

    def _start_transmission(self, packet: Packet) -> None:
        """Begin serializing ``packet`` (the transmitter was idle).

        Schedules the packet's delivery at its finish plus the propagation
        delay, and the ``tx-done`` event at its finish when a packet
        already waits or an observer listens.
        """
        sim = self._sim
        now = sim.now
        start = now
        for fault in self.egress_faults:
            start = max(start, fault.stalled_until(now))
        finish = start + packet.size_bits / self.rate_bps
        # The previous transmission has finished: fold its busy span in.
        self._busy_time += self._busy_until - self._busy_since
        self._busy_since = now
        self._busy_until = finish
        self._started += 1
        self._started_bits += packet.size_bits
        self._in_service = packet
        if self.queue._packets or self.lifecycle is not None:
            self._tx_pending = True
            sim.call_at(finish, self._tx_done_ref, label=self._tx_label)
        self._inflight.append(packet)
        sim.call_at(finish + self.prop_delay, self._deliver_ref,
                    label=self._deliver_label)
        if self.lifecycle is not None:
            self.lifecycle.on_tx_start(self, packet)

    def _transmission_done(self) -> None:
        """The finish instant of the packet in service: report it and
        start the next queued packet, if any."""
        self._tx_pending = False
        if self.lifecycle is not None:
            assert self._in_service is not None
            self.lifecycle.on_tx_done(self, self._in_service)
        queue = self.queue
        if queue._packets:
            self._start_transmission(queue.dequeue())

    def _deliver(self) -> None:
        packet = self._inflight.popleft()
        assert self.peer is not None
        if self.lifecycle is not None:
            self.lifecycle.on_delivered(self, packet)
        self.peer.handle_packet(packet, ingress=self)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized (or held by a stall).

        Until its finish instant, or while its ``tx-done`` event has yet
        to run at that instant.
        """
        return self._tx_pending or self._sim.now < self._busy_until

    @property
    def transmitted(self) -> int:
        """Packets whose transmission has finished."""
        return self._started - 1 if self.busy else self._started

    @property
    def transmitted_bits(self) -> int:
        """Bits of the packets whose transmission has finished."""
        if self.busy:
            assert self._in_service is not None
            return self._started_bits - self._in_service.size_bits
        return self._started_bits

    @property
    def busy_time(self) -> float:
        """Total seconds the transmitter has been occupied so far.

        Includes the in-progress transmission (up to ``sim.now``) and any
        fault-stall time spent holding a packet.
        """
        now = self._sim.now
        until = self._busy_until if now >= self._busy_until else now
        return self._busy_time + (until - self._busy_since)

    def utilization_estimate(self) -> float:
        """Fraction of time the transmitter was busy since it was created.

        Tracked internally from the interface's own busy periods, so no
        caller-supplied window is needed and idle periods (before first
        use or between bursts) are accounted correctly.
        """
        elapsed = self._sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:
        return (f"<Interface {self.name} {self.rate_bps:.0f}bps "
                f"prop={seconds_to_ms(self.prop_delay):.1f}ms "
                f"busy={self.busy}>")
