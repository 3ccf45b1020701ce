"""Packet-lifecycle tracing: every hop of every packet, reconstructable.

A :class:`PacketLifecycleTracer` installs itself as the ``lifecycle``
observer of every node and interface of a built network (an interface
reports its queue's milestones too; see :mod:`repro.net.hooks`) and
records one :class:`HopRecord` per milestone:
``created``, ``enqueued`` (with queue occupancy), ``queue_drop``,
``tx_start``, ``tx_done``, ``fault_drop``, ``delivered``, ``received``.
From those records any packet's full path — which queue it waited in, what
it was compressed behind, where it died — can be reconstructed with
:meth:`PacketLifecycleTracer.path` and joined against
:class:`~repro.netdyn.trace.ProbeTrace` rows via :func:`probe_uids`.

Like every observer in :mod:`repro.obs`, the tracer only records: it never
schedules events, draws randomness, or mutates packets, so enabling it
leaves all simulated timestamps bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, List, NamedTuple, \
    Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.packet import KIND_UDP

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.net.link import Interface
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.net.queue import DropTailQueue
    from repro.net.routing import Network

#: Milestone names, in the order a surviving packet meets them per hop.
EVENT_CREATED = "created"
EVENT_ENQUEUED = "enqueued"
EVENT_QUEUE_DROP = "queue_drop"
EVENT_TX_START = "tx_start"
EVENT_TX_DONE = "tx_done"
EVENT_FAULT_DROP = "fault_drop"
EVENT_DELIVERED = "delivered"
EVENT_RECEIVED = "received"

#: Milestones that terminate a packet's life.
TERMINAL_EVENTS = frozenset({EVENT_QUEUE_DROP, EVENT_FAULT_DROP,
                             EVENT_RECEIVED})


class HopRecord(NamedTuple):
    """One packet milestone.

    An immutable tuple, several per packet per hop while tracing;
    ``_asdict()`` is its JSONL row.

    Attributes
    ----------
    time:
        Simulated time of the milestone, seconds.
    uid:
        The packet's unique id within its simulation (uids restart at 1 per
        :class:`~repro.sim.kernel.Simulator`).
    event:
        One of the ``EVENT_*`` milestone names.
    place:
        Where it happened: node name, or the interface/queue label
        (``"a->b"``).
    kind:
        The packet kind (``"udp"``, ``"icmp_echo"``, ...).
    src, dst:
        The packet's original sender and final destination.
    queue_len:
        Queue occupancy in packets *after* the milestone, for ``enqueued``
        (includes the packet itself) and ``queue_drop`` (the full buffer the
        packet bounced off); -1 elsewhere.
    """

    time: float
    uid: int
    event: str
    place: str
    kind: str
    src: str
    dst: str
    queue_len: int = -1


class PacketLifecycleTracer:
    """Records hop milestones for every packet crossing a network.

    Parameters
    ----------
    network:
        A built network; the tracer hooks every node and interface.
    kinds:
        Optional filter: record only these packet kinds (``None`` = all).

    Use :meth:`close` to unhook; records stay available afterwards.
    """

    def __init__(self, network: "Network",
                 kinds: Optional[Sequence[str]] = None) -> None:
        self.network = network
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.records: List[HopRecord] = []
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    # Hook management
    # ------------------------------------------------------------------
    def _components(self) -> Iterator[Any]:
        for node in self.network.nodes.values():
            yield node
            yield from node.interfaces.values()

    def attach(self) -> None:
        """Install this tracer on every component of the network.

        A component holds one observer: when any node or interface
        already has a different one (a
        :class:`~repro.net.tap.PacketTap`, another tracer), this raises
        :class:`~repro.errors.ConfigurationError` and installs nothing.
        """
        if self._attached:
            return
        for component in self._components():
            if component.lifecycle not in (None, self):
                raise ConfigurationError(
                    f"{component!r} already has a lifecycle observer")
        for component in self._components():
            component.lifecycle = self
        self._attached = True

    def close(self) -> None:
        """Unhook from the network; recorded history stays available."""
        if not self._attached:
            return
        for component in self._components():
            if component.lifecycle is self:
                component.lifecycle = None
        self._attached = False

    # ------------------------------------------------------------------
    # LifecycleObserver interface (called by net components)
    # ------------------------------------------------------------------
    def _record(self, packet: "Packet", event: str, place: str,
                queue_len: int = -1) -> None:
        if self.kinds is not None and packet.kind not in self.kinds:
            return
        self.records.append(HopRecord(
            time=self.network.sim.now, uid=packet.uid, event=event,
            place=place, kind=packet.kind, src=packet.src, dst=packet.dst,
            queue_len=queue_len))

    def on_created(self, node: "Node", packet: "Packet") -> None:
        self._record(packet, EVENT_CREATED, node.name)

    def on_enqueued(self, queue: "DropTailQueue", packet: "Packet") -> None:
        # A packet admitted onto an idle link crosses the empty queue
        # without entering it (DropTailQueue.pass_through), yet held it
        # alone for an instant: occupancy 1.
        self._record(packet, EVENT_ENQUEUED, queue.name,
                     queue_len=max(1, len(queue)))

    def on_queue_drop(self, queue: "DropTailQueue",
                      packet: "Packet") -> None:
        self._record(packet, EVENT_QUEUE_DROP, queue.name,
                     queue_len=len(queue))

    def on_tx_start(self, interface: "Interface", packet: "Packet") -> None:
        self._record(packet, EVENT_TX_START, interface.name)

    def on_tx_done(self, interface: "Interface", packet: "Packet") -> None:
        self._record(packet, EVENT_TX_DONE, interface.name)

    def on_fault_drop(self, interface: "Interface",
                      packet: "Packet") -> None:
        self._record(packet, EVENT_FAULT_DROP, interface.name)

    def on_delivered(self, interface: "Interface", packet: "Packet") -> None:
        self._record(packet, EVENT_DELIVERED, interface.name)

    def on_received(self, node: "Node", packet: "Packet") -> None:
        self._record(packet, EVENT_RECEIVED, node.name)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def path(self, uid: int) -> List[HopRecord]:
        """The full milestone sequence of one packet (time-ordered).

        A scan of :attr:`records`: the tracer keeps no per-uid index, which
        would hold every record a second time.
        """
        return [record for record in self.records if record.uid == uid]

    def fate(self, uid: int) -> Optional[HopRecord]:
        """The terminal milestone of a packet, or None if still in flight.

        For a round-trip (probe echoed back to its source) this is the
        *last* terminal record — intermediate ``received`` events at the
        echo host are not the end of the measured journey, but each leg's
        packet has its own uid, so per-uid the first terminal suffices.
        """
        for record in reversed(self.path(uid)):
            if record.event in TERMINAL_EVENTS:
                return record
        return None

    def drops(self) -> List[HopRecord]:
        """Every queue-overflow and fault drop, time-ordered."""
        return [record for record in self.records
                if record.event in (EVENT_QUEUE_DROP, EVENT_FAULT_DROP)]

    def __repr__(self) -> str:
        return (f"<PacketLifecycleTracer {len(self.records)} records"
                f"{'' if self._attached else ' (closed)'}>")


def probe_uids(tracer: PacketLifecycleTracer, source: str,
               echo: str) -> List[int]:
    """Uids of NetDyn probe packets, in send order.

    Probe ``n`` of a :class:`~repro.netdyn.trace.ProbeTrace` measured from
    ``source`` against ``echo`` is the ``n``-th UDP packet created at
    ``source`` with destination ``echo`` — which joins trace rows to
    lifecycle paths: ``tracer.path(probe_uids(tracer, src, echo)[n])``.
    """
    return [record.uid for record in tracer.records
            if record.event == EVENT_CREATED and record.place == source
            and record.dst == echo and record.kind == KIND_UDP]
