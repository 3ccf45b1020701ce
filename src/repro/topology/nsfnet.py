"""A mesh topology: the T1 NSFNET backbone (circa 1991).

The paper's paths cross the NSFNET backbone (Table 1 transits the Ithaca
NSS).  The linear paths of :mod:`repro.topology.inria_umd` are enough for
the paper's experiments, but a mesh exercises the routing substrate
properly (shortest-path selection, alternate routes for flap experiments)
and gives the examples a realistic wide-area playground.

The node set and links follow the standard 13-node T1 NSFNET backbone map
used throughout the literature (e.g. the MaRS routing studies [25] the
paper cites).  Link propagation delays approximate great-circle distances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.routing import Network
from repro.sim.kernel import Simulator
from repro.units import mbps, ms

#: The 13 NSS sites of the T1 backbone.
NSFNET_SITES = (
    "Seattle", "PaloAlto", "SanDiego", "SaltLakeCity", "Boulder",
    "Lincoln", "Houston", "Urbana", "AnnArbor", "Pittsburgh",
    "Ithaca", "CollegePark", "Princeton",
)

#: Backbone links with approximate one-way propagation delays (ms).
NSFNET_LINKS = (
    ("Seattle", "PaloAlto", 5.4),
    ("Seattle", "SaltLakeCity", 5.6),
    ("PaloAlto", "SanDiego", 3.7),
    ("PaloAlto", "SaltLakeCity", 4.7),
    ("SanDiego", "Houston", 9.5),
    ("SaltLakeCity", "Boulder", 3.2),
    ("Boulder", "Lincoln", 3.9),
    ("Boulder", "Houston", 6.5),
    ("Lincoln", "Urbana", 4.0),
    ("Houston", "CollegePark", 9.8),
    ("Urbana", "AnnArbor", 2.6),
    ("Urbana", "Pittsburgh", 3.8),
    ("AnnArbor", "Ithaca", 3.3),
    ("Pittsburgh", "Princeton", 2.8),
    ("Pittsburgh", "Ithaca", 2.3),
    ("Ithaca", "CollegePark", 2.7),
    ("CollegePark", "Princeton", 1.7),
)

#: T1 trunk rate.
T1_RATE_BPS = mbps(1.544)


@dataclass
class NsfnetScenario:
    """The built backbone plus one access host per site."""

    sim: Simulator
    network: Network

    def host_at(self, site: str) -> str:
        """Name of the access host attached to ``site``."""
        return f"host.{site}"


def build_nsfnet(seed: int = 0) -> NsfnetScenario:
    """Build the 13-node T1 backbone with one end host per site.

    Every site gets an access host ``host.<Site>`` on a 10 Mb/s LAN, so
    probes and traffic can run between any pair of cities.
    """
    sim = Simulator(seed=seed)
    network = Network(sim)
    for site in NSFNET_SITES:
        network.add_router(site)
    for a, b, delay_ms in NSFNET_LINKS:
        network.link(a, b, rate_bps=T1_RATE_BPS, prop_delay=ms(delay_ms),
                     queue_capacity=64)
    for site in NSFNET_SITES:
        host = f"host.{site}"
        network.add_host(host)
        network.link(host, site, rate_bps=mbps(10),
                     prop_delay=ms(0.1), queue_capacity=128)
    network.compute_routes()
    return NsfnetScenario(sim=sim, network=network)
