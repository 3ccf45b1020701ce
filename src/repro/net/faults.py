"""Fault models attachable to network interfaces.

The paper attributes part of the observed ~10% stationary loss to faulty
Ethernet/FDDI interface cards in Suranet that randomly drop packets (up to
3%, [17]), and cites NetDyn's discovery of a gateway 'debug' option that
stalled forwarding every 90 seconds [21, 22].  These models reproduce both,
plus route flapping, so the examples can re-enact NetDyn's network-debugging
use cases.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.sim.kernel import Simulator, restore_attributes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.node import Node


class FaultModel:
    """Base class; by default a fault neither drops nor stalls anything."""

    __setstate__ = restore_attributes

    def drops(self, packet: Packet, sim: Simulator) -> bool:
        """Return True to silently discard ``packet``."""
        return False

    def stalled_until(self, now: float) -> float:
        """Earliest time the interface may transmit; ``now`` means no stall."""
        return now


class RandomDropFault(FaultModel):
    """Drops each packet independently with fixed probability.

    Models the faulty Suranet interface cards of [17] (loss rates up to 3%).
    """

    def __init__(self, probability: float, rng: np.random.Generator) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"drop probability must be in [0, 1], got {probability}")
        self.probability = probability
        self._rng = rng
        self.dropped = 0

    def drops(self, packet: Packet, sim: Simulator) -> bool:
        if self._rng.random() < self.probability:
            self.dropped += 1
            return True
        return False

    def drops_many(self, count: int) -> np.ndarray:
        """Drop decisions for ``count`` consecutive packets, as a mask.

        Draw-for-draw identical to ``count`` sequential :meth:`drops`
        calls: ``Generator.random(size=n)`` consumes the same underlying
        doubles in the same order as ``n`` scalar draws, and the drop
        counter advances by the same amount.  The analytic fast-forward
        engine uses this to replay a whole probe train's decisions at one
        fault stage in a single vectorized draw.
        """
        mask = self._rng.random(count) < self.probability
        self.dropped += int(mask.sum())
        return mask


class PeriodicStallFault(FaultModel):
    """Freezes the transmitter for ``stall`` seconds every ``period`` seconds.

    Models the gateway 'debug' option found by Sanghi et al. in May 1992:
    round-trip delays increased dramatically every 90 seconds while the
    gateway dumped state [22].
    """

    def __init__(self, period: float, stall: float, phase: float = 0.0) -> None:
        # NaN fails no comparison below, so each value is checked first.
        for name, value in (("period", period), ("stall", stall),
                            ("phase", phase)):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"stall fault: {name} must be finite, got {value!r}")
        if period <= 0 or stall < 0 or stall >= period:
            raise ConfigurationError(
                f"need 0 <= stall < period, got stall={stall} period={period}")
        self.period = period
        self.stall = stall
        self.phase = phase

    def stalled_until(self, now: float) -> float:
        offset = (now - self.phase) % self.period
        if offset < self.stall:
            return now + (self.stall - offset)
        return now


class RouteFlapFault:
    """Periodically toggles a node's next hop for one destination.

    Models the route changes whose delay signatures NetDyn observed [21].
    Unlike the interface faults this acts on a node's routing table; call
    :meth:`install` once the topology is built.
    """

    def __init__(self, sim: Simulator, node: "Node", destination: str,
                 primary_peer: str, backup_peer: str, period: float) -> None:
        if not (math.isfinite(period) and period > 0):
            raise ConfigurationError(
                f"route flap: period must be finite and positive, "
                f"got {period!r}")
        self._sim = sim
        self._node = node
        self._destination = destination
        self._peers = (primary_peer, backup_peer)
        self._period = period
        self._using_backup = False
        self.flaps = 0

    def install(self) -> None:
        """Start flapping; the first flap happens one period from now."""
        self._sim.schedule(self._period, self._flap, label="route-flap")

    def _flap(self) -> None:
        self._using_backup = not self._using_backup
        peer = self._peers[1] if self._using_backup else self._peers[0]
        self._node.set_next_hop(self._destination, peer)
        self.flaps += 1
        self._sim.schedule(self._period, self._flap, label="route-flap")
