"""Declarative construction of linear (path) topologies.

The paper's connections are single stable routes (Tables 1 and 2), i.e.
linear chains of routers between two end hosts.  :func:`build_path` turns a
list of :class:`LinkSpec` into such a chain on a fresh
:class:`~repro.net.routing.Network`; :class:`PathScenario` is what the
calibrated path builders return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.faults import RandomDropFault
from repro.net.link import Interface, check_link_parameters
from repro.net.queue import MODE_PACKETS
from repro.net.routing import Network
from repro.net.clocks import Clock
from repro.sim.kernel import Simulator
from repro.traffic.mix import InternetMix


@dataclass
class LinkSpec:
    """Parameters of one bidirectional link in a path.

    ``rate_bps``/``prop_delay`` apply to both directions unless the ``_ba``
    overrides are given (direction ``ba`` is right-to-left in the path).
    """

    rate_bps: float
    prop_delay: float
    queue_capacity: int = 64
    queue_mode: str = MODE_PACKETS
    rate_bps_ba: Optional[float] = None
    prop_delay_ba: Optional[float] = None

    def __post_init__(self) -> None:
        check_link_parameters("spec a->b", self.rate_bps, self.prop_delay)
        check_link_parameters(
            "spec b->a",
            self.rate_bps if self.rate_bps_ba is None else self.rate_bps_ba,
            self.prop_delay if self.prop_delay_ba is None
            else self.prop_delay_ba)


@dataclass
class PathScenario:
    """A built calibrated path with its traffic attached.

    The paper's Figure 3 model: probes cross a fixed delay and one FIFO
    bottleneck per direction, where an Internet stream shares the link.
    """

    sim: Simulator
    network: Network
    source: str
    echo: str
    bottleneck_fwd: Interface
    bottleneck_rev: Interface
    mix_fwd: Optional[InternetMix]
    mix_rev: Optional[InternetMix]
    faults: list[RandomDropFault] = field(default_factory=list)

    def start_traffic(self, at: float = 0.0) -> None:
        """Start all cross-traffic sources."""
        if self.mix_fwd is not None:
            self.mix_fwd.start(at=at)
        if self.mix_rev is not None:
            self.mix_rev.start(at=at)

    @property
    def bottleneck_rate_bps(self) -> float:
        """Service rate μ of the bottleneck, bits per second."""
        return self.bottleneck_fwd.rate_bps


def build_path(sim: Simulator, names: Sequence[str],
               links: Sequence[LinkSpec],
               host_names: Sequence[str] = (),
               clocks: Optional[dict[str, Clock]] = None,
               processing_delay: float = 0.0) -> Network:
    """Build a chain ``names[0] — names[1] — ... — names[-1]``.

    Parameters
    ----------
    names:
        Node names in path order.
    links:
        One :class:`LinkSpec` per adjacent pair (``len(names) - 1``).
    host_names:
        Which of ``names`` are end hosts (get a UDP stack); all others are
        routers.  Extra hosts can be attached afterwards via
        ``network.add_host`` + ``network.link``.
    clocks:
        Optional per-host clock models, keyed by host name.
    processing_delay:
        Per-packet forwarding latency applied at every router.
    """
    if len(links) != len(names) - 1:
        raise ConfigurationError(
            f"need {len(names) - 1} link specs for {len(names)} nodes, "
            f"got {len(links)}")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate node names in {names!r}")
    clocks = clocks or {}
    hosts = set(host_names)
    unknown = hosts - set(names)
    if unknown:
        raise ConfigurationError(f"host names not in path: {sorted(unknown)}")

    network = Network(sim)
    for name in names:
        if name in hosts:
            network.add_host(name, clock=clocks.get(name))
        else:
            network.add_router(name, processing_delay=processing_delay)

    for (a, b), spec in zip(zip(names, names[1:]), links):
        network.link(a, b, rate_bps=spec.rate_bps,
                     prop_delay=spec.prop_delay,
                     queue_capacity=spec.queue_capacity,
                     queue_mode=spec.queue_mode,
                     rate_bps_ba=spec.rate_bps_ba,
                     prop_delay_ba=spec.prop_delay_ba)
    network.compute_routes()
    return network
