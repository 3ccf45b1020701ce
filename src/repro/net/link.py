"""Network interfaces and links.

An :class:`Interface` is the transmitting side of a unidirectional link: it
owns the output :class:`~repro.net.queue.DropTailQueue`, serializes packets
at the link rate, applies fault models, and delivers packets to the peer
node after the propagation delay.  A bidirectional link between two nodes is
simply a pair of interfaces, one on each node (see
:meth:`repro.net.routing.Network.link`).
"""

from __future__ import annotations

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
        if rate_bps <= 0:
            raise ConfigurationError(
                f"link rate must be positive, got {rate_bps}")
        if prop_delay < 0:
            raise ConfigurationError(
                f"propagation delay must be >= 0, got {prop_delay}")
        self._sim = sim
        self.node = node
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.name = name
        self.peer: Optional["Node"] = None
        self.egress_faults: list[FaultModel] = []
        self.ingress_faults: list[FaultModel] = []
        self.transmitted = 0
        self.transmitted_bits = 0
        self.fault_drops = 0
        self._created_at = sim.now
        self._busy_since = 0.0
        self._busy_time = 0.0
        #: Optional packet-lifecycle observer (see repro.net.hooks); it
        #: also hears this interface's queue milestones.
        self.lifecycle: Optional[LifecycleObserver] = None
        # Hot-path state (see DESIGN.md, "Hot path").  The transmitter is
        # serial and the propagation delay is a per-interface constant, so
        # transmission-finish and delivery events complete in the order they
        # were scheduled: one packet slot plus a FIFO of in-flight packets
        # replaces a closure per event.  The bound callbacks and labels are
        # allocated once here instead of once per packet.
        self._transmitting: Optional[Packet] = None
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

    def add_ingress_fault(self, fault: FaultModel) -> None:
        """Drop packets as they are received by the peer."""
        self.ingress_faults.append(fault)

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
        idle = self._transmitting is None
        # An idle transmitter means an empty queue: the packet crosses it in
        # one call that keeps the arrival/occupancy statistics exact.
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
        """Begin serializing ``packet`` (the transmitter was idle)."""
        sim = self._sim
        now = sim.now
        self._busy_since = now
        start = now
        for fault in self.egress_faults:
            start = max(start, fault.stalled_until(now))
        finish = start + packet.size_bits / self.rate_bps
        self._transmitting = packet
        sim.call_at(finish, self._tx_done_ref, label=self._tx_label)
        if self.lifecycle is not None:
            self.lifecycle.on_tx_start(self, packet)

    def _transmission_done(self) -> None:
        packet = self._transmitting
        assert packet is not None
        self._transmitting = None
        sim = self._sim
        now = sim.now
        self.transmitted += 1
        self.transmitted_bits += packet.size_bits
        self._busy_time += now - self._busy_since
        self._inflight.append(packet)
        sim.call_at(now + self.prop_delay, self._deliver_ref,
                    label=self._deliver_label)
        if self.lifecycle is not None:
            self.lifecycle.on_tx_done(self, packet)
        queue = self.queue
        if queue._packets:
            self._start_transmission(queue.dequeue())

    def _deliver(self) -> None:
        packet = self._inflight.popleft()
        assert self.peer is not None
        for fault in self.ingress_faults:
            if fault.drops(packet, self._sim):
                self.fault_drops += 1
                if self.lifecycle is not None:
                    self.lifecycle.on_fault_drop(self, packet)
                return
        if self.lifecycle is not None:
            self.lifecycle.on_delivered(self, packet)
        self.peer.handle_packet(packet, ingress=self)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._transmitting is not None

    @property
    def busy_time(self) -> float:
        """Total seconds the transmitter has been occupied so far.

        Includes the in-progress transmission (up to ``sim.now``) and any
        fault-stall time spent holding a packet.
        """
        accumulated = self._busy_time
        if self._transmitting is not None:
            accumulated += self._sim.now - self._busy_since
        return accumulated

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
