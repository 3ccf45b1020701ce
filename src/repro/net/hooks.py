"""Observer protocols for the network substrate's lifecycle hooks.

Components (:class:`~repro.net.link.Interface`, :class:`~repro.net.node.Node`)
each carry an optional ``lifecycle`` attribute, ``None`` by default.  When
set, the component reports packet milestones — created, enqueued, dropped,
tx-start, tx-done, delivered, received — to the observer.  A
:class:`~repro.net.queue.DropTailQueue` has no observer of its own: the
interface that owns it reports its ``enqueued`` and ``queue_drop``
milestones right after the queue admits or drops the packet.  The contract
that keeps the simulator honest (see DESIGN.md, "observers never perturb
the simulation"):

* observers only *record*; they never schedule events, draw randomness, or
  mutate packets or component state;
* a disabled hook costs one ``is not None`` check on the hot path, and a
  traced run executes the same component code as an untraced one: no
  component rebinds its methods when an observer is attached, so attaching
  one cannot change drop decisions, occupancy accounting, or event timing
  (``tests/obs/test_determinism.py`` pins this);
* each component holds one observer at a time;
* the concrete implementations are :class:`repro.net.tap.PacketTap` (one
  interface) and :mod:`repro.obs.lifecycle` (a whole network) — the net
  layer depends only on this protocol, never on ``repro.obs``.  An
  observer that subclasses the protocol inherits every milestone it does
  not override as an explicit no-op (``return None``, so type checkers do
  not treat the bodies as abstract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoids cycles
    from repro.net.link import Interface
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.net.queue import DropTailQueue


class LifecycleObserver(Protocol):
    """Receives packet-lifecycle milestones from network components."""

    def on_created(self, node: "Node", packet: "Packet") -> None:
        """A host originated ``packet`` (UDP send or ICMP generation)."""
        return None

    def on_enqueued(self, queue: "DropTailQueue", packet: "Packet") -> None:
        """``queue`` admitted ``packet`` (occupancy includes it).

        A packet admitted onto an idle link crosses the empty queue without
        entering it, so ``len(queue)`` may read 0 here.
        """
        return None

    def on_queue_drop(self, queue: "DropTailQueue", packet: "Packet") -> None:
        """``packet`` overflowed ``queue`` and was tail-dropped."""
        return None

    def on_tx_start(self, interface: "Interface", packet: "Packet") -> None:
        """``interface`` began serializing ``packet``."""
        return None

    def on_tx_done(self, interface: "Interface", packet: "Packet") -> None:
        """``interface`` finished serializing ``packet`` onto the wire."""
        return None

    def on_fault_drop(self, interface: "Interface", packet: "Packet") -> None:
        """An egress fault discarded ``packet`` before ``interface``'s queue."""
        return None

    def on_delivered(self, interface: "Interface", packet: "Packet") -> None:
        """``packet`` crossed ``interface`` and reached the peer node."""
        return None

    def on_received(self, node: "Node", packet: "Packet") -> None:
        """``packet`` was consumed by its final destination ``node``."""
        return None
