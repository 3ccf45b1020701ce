"""The INRIA -> University of Maryland path of Table 1 (July 1992).

The scenario reconstructs the paper's measurement path: a DECstation 5000
source at INRIA (3.906 ms clock), nine gateways, the 128 kb/s transatlantic
bottleneck between ``icm-sophia.icp.net`` and ``Ithaca.NY.NSS.NSF.NET``, and
an echo host at UMd.  Link propagation delays are set so the fixed round
trip D lands near the paper's 140 ms, and the bottleneck buffer holds K = 15
packets so the maximum queueing delay approaches the 620 ms maximum the
paper reports for the δ = 500 ms experiment.

Cross traffic (the "Internet stream") is attached at the two ends of the
transatlantic link in both directions, and the SURA segment carries the
random-drop interface fault reported in [17].
"""

from __future__ import annotations

from repro.net.faults import RandomDropFault
from repro.net.queue import MODE_PACKETS
from repro.net.clocks import DECSTATION_RESOLUTION, QuantizedClock
from repro.sim.kernel import Simulator
from repro.topology.builder import LinkSpec, PathScenario, build_path
from repro.traffic.mix import attach_internet_mix
from repro.units import kbps, mbps, ms

#: The ten route entries of Table 1 (the first is the source host).
TABLE1_ROUTE = (
    "tom.inria.fr",
    "t8-gw.inria.fr",
    "sophia-gw.atlantic.fr",
    "icm-sophia.icp.net",
    "Ithaca.NY.NSS.NSF.NET",
    "Ithaca1.NY.NSS.NSF.NET",
    "nss-SURA-eth.sura.net",
    "sura8-umd-c1.sura.net",
    "csc2hub-gw.umd.edu",
    "avwhub-gw.umd.edu",
)

#: Echo host beyond the last gateway (the paper does not name it).
ECHO_HOST = "mimsy.umd.edu"

#: Source host (first entry of Table 1).
SOURCE_HOST = TABLE1_ROUTE[0]

#: Bottleneck rate: the transatlantic link, 128 kb/s in July 1992.
BOTTLENECK_RATE_BPS = kbps(128)

#: Endpoints of the bottleneck link.
BOTTLENECK_A = "icm-sophia.icp.net"
BOTTLENECK_B = "Ithaca.NY.NSS.NSF.NET"

#: Bottleneck output buffer: K packets, as in the paper's Figure 3 model.
#: 15 full bulk packets (552 B wire) hold ~8.3 kB -> ~517 ms of queueing per
#: direction; with both directions loaded the observed maximum queueing
#: delay lands near the paper's 620 ms.
DEFAULT_BUFFER_PACKETS = 15

#: Random per-direction drop probability on the SURA segment [17].
DEFAULT_FAULT_DROP = 0.015


def build_inria_umd(seed: int = 0,
                    utilization_fwd: float = 0.72,
                    utilization_rev: float = 0.64,
                    bulk_fraction: float = 0.85,
                    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
                    fault_drop_prob: float = DEFAULT_FAULT_DROP,
                    window: int = 3,
                    window_interval: float = 0.30,
                    mean_file_packets: float = 20.0,
                    quantized_clock: bool = True) -> PathScenario:
    """Build the calibrated INRIA-UMd scenario.

    Parameters
    ----------
    seed:
        Master random seed.
    utilization_fwd, utilization_rev:
        Cross-traffic wire load on the transatlantic link, west-bound
        (France -> US, shared with outbound probes) and east-bound.
    bulk_fraction:
        Share of cross-traffic bits carried by 512-byte bulk packets.
    buffer_packets:
        Bottleneck output buffer size (both directions), in packets —
        the K of the paper's queueing model.
    fault_drop_prob:
        Per-direction random drop probability on the SURA segment; 0
        disables the fault.
    quantized_clock:
        Give the source host the DECstation's 3.906 ms clock.
    """
    sim = Simulator(seed=seed)

    names = list(TABLE1_ROUTE) + [ECHO_HOST]
    ethernet = dict(rate_bps=mbps(10), queue_capacity=128)
    regional = dict(rate_bps=mbps(2), queue_capacity=128)
    t1 = dict(rate_bps=mbps(1.544), queue_capacity=128)
    links = [
        LinkSpec(prop_delay=ms(0.1), **ethernet),        # tom - t8-gw
        LinkSpec(prop_delay=ms(2.0), **regional),        # t8-gw - sophia-gw
        LinkSpec(prop_delay=ms(1.0), **regional),        # sophia-gw - icm
        LinkSpec(rate_bps=BOTTLENECK_RATE_BPS,           # transatlantic
                 prop_delay=ms(50.0),
                 queue_capacity=buffer_packets, queue_mode=MODE_PACKETS),
        LinkSpec(prop_delay=ms(0.5), **t1),              # Ithaca - Ithaca1
        LinkSpec(prop_delay=ms(5.0), **t1),              # Ithaca1 - SURA
        LinkSpec(prop_delay=ms(3.0), **t1),              # SURA - sura8-umd
        LinkSpec(prop_delay=ms(1.0), **t1),              # sura8 - csc2hub
        LinkSpec(prop_delay=ms(0.2), **ethernet),        # csc2hub - avwhub
        LinkSpec(prop_delay=ms(0.1), **ethernet),        # avwhub - mimsy
    ]
    network = build_path(sim, names, links,
                         host_names=[SOURCE_HOST, ECHO_HOST])
    if quantized_clock:
        network.host(SOURCE_HOST).clock = QuantizedClock(
            sim, DECSTATION_RESOLUTION)

    # Cross-traffic hosts hang off the bottleneck endpoints on fast links.
    for name, attach in (("cross-fr.icp.net", BOTTLENECK_A),
                         ("cross-us.nsf.net", BOTTLENECK_B)):
        network.add_host(name)
        network.link(name, attach, rate_bps=mbps(10), prop_delay=ms(0.1),
                     queue_capacity=256)
    network.compute_routes()

    mix_fwd = attach_internet_mix(
        network.host("cross-fr.icp.net"), network.host("cross-us.nsf.net"),
        link_rate_bps=BOTTLENECK_RATE_BPS, utilization=utilization_fwd,
        bulk_fraction=bulk_fraction, window=window,
        window_interval=window_interval,
        mean_file_packets=mean_file_packets,
        stream_prefix="mix.fwd") if utilization_fwd > 0 else None
    mix_rev = attach_internet_mix(
        network.host("cross-us.nsf.net"), network.host("cross-fr.icp.net"),
        link_rate_bps=BOTTLENECK_RATE_BPS, utilization=utilization_rev,
        bulk_fraction=bulk_fraction, window=window,
        window_interval=window_interval,
        mean_file_packets=mean_file_packets, base_port=9100,
        stream_prefix="mix.rev") if utilization_rev > 0 else None

    faults: list[RandomDropFault] = []
    if fault_drop_prob > 0:
        for a, b in (("nss-SURA-eth.sura.net", "sura8-umd-c1.sura.net"),
                     ("sura8-umd-c1.sura.net", "nss-SURA-eth.sura.net")):
            fault = RandomDropFault(fault_drop_prob,
                                    sim.streams.get(f"fault.{a}"))
            network.interface(a, b).add_egress_fault(fault)
            faults.append(fault)

    return PathScenario(
        sim=sim, network=network, source=SOURCE_HOST, echo=ECHO_HOST,
        bottleneck_fwd=network.interface(BOTTLENECK_A, BOTTLENECK_B),
        bottleneck_rev=network.interface(BOTTLENECK_B, BOTTLENECK_A),
        mix_fwd=mix_fwd, mix_rev=mix_rev, faults=faults)
