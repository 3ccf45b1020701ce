"""A small generic topology the substrate and tool tests run on.

:func:`build_single_bottleneck` is the minimal physical realization of the
paper's Figure 3 model: source — router — (bottleneck) — router — echo, with
optional cross-traffic hosts at the bottleneck ends.  It simulates in a
fraction of the time the calibrated paths take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.link import Interface
from repro.net.queue import MODE_BYTES
from repro.net.routing import Network
from repro.sim.kernel import Simulator
from repro.topology.builder import LinkSpec, build_path
from repro.units import kbps, mbps, ms

#: Node names of the single-bottleneck path.
SB_SOURCE = "src"
SB_LEFT = "r-left"
SB_RIGHT = "r-right"
SB_ECHO = "echo"


@dataclass
class SingleBottleneck:
    """A built single-bottleneck network and its key handles."""

    sim: Simulator
    network: Network
    source: str
    echo: str
    bottleneck_fwd: Interface
    bottleneck_rev: Interface
    cross_sender: Optional[str]
    cross_receiver: Optional[str]


def build_single_bottleneck(seed: int = 0,
                            rate_bps: float = kbps(128),
                            prop_delay: float = ms(50),
                            buffer_capacity: int = 10_000,
                            buffer_mode: str = MODE_BYTES,
                            access_rate_bps: float = mbps(10),
                            access_delay: float = ms(0.1),
                            with_cross_hosts: bool = True,
                            sim: Optional[Simulator] = None,
                            ) -> SingleBottleneck:
    """Build ``src — r-left ==bottleneck== r-right — echo``.

    The bottleneck link carries ``prop_delay`` propagation each way and the
    finite buffer under test; access links are fast and lightly buffered.
    When ``with_cross_hosts`` is set, hosts ``cross-l`` / ``cross-r`` hang
    off the two routers for attaching cross traffic in either direction.
    """
    sim = sim if sim is not None else Simulator(seed=seed)
    names = [SB_SOURCE, SB_LEFT, SB_RIGHT, SB_ECHO]
    links = [
        LinkSpec(rate_bps=access_rate_bps, prop_delay=access_delay,
                 queue_capacity=256),
        LinkSpec(rate_bps=rate_bps, prop_delay=prop_delay,
                 queue_capacity=buffer_capacity, queue_mode=buffer_mode),
        LinkSpec(rate_bps=access_rate_bps, prop_delay=access_delay,
                 queue_capacity=256),
    ]
    network = build_path(sim, names, links, host_names=[SB_SOURCE, SB_ECHO])

    cross_sender = cross_receiver = None
    if with_cross_hosts:
        cross_sender, cross_receiver = "cross-l", "cross-r"
        for name, attach in ((cross_sender, SB_LEFT),
                             (cross_receiver, SB_RIGHT)):
            network.add_host(name)
            network.link(name, attach, rate_bps=access_rate_bps,
                         prop_delay=access_delay, queue_capacity=256)
        network.compute_routes()

    return SingleBottleneck(
        sim=sim, network=network, source=SB_SOURCE, echo=SB_ECHO,
        bottleneck_fwd=network.interface(SB_LEFT, SB_RIGHT),
        bottleneck_rev=network.interface(SB_RIGHT, SB_LEFT),
        cross_sender=cross_sender, cross_receiver=cross_receiver)
