"""The University of Maryland -> University of Pittsburgh path of Table 2.

In May 1993 this path ran over the T3 (45 Mb/s) ANSnet backbone; the paper
notes the bottleneck is unclear but "very likely ... much higher than the
128 kb/s" of the INRIA-UMd path.  We model the campus Ethernets (10 Mb/s) as
the narrowest links, so ``P/μ`` is tens of microseconds: the compression
line of the phase plot sits at ``rtt_{n+1} ≈ rtt_n − δ``, as Figure 5 shows.
The UMd source host clock is quantized to 3 ms, which produces the regular
banding the paper points out in Figures 5 and 6.
"""

from __future__ import annotations

from repro.net.queue import MODE_BYTES
from repro.net.clocks import QuantizedClock, UMD_RESOLUTION
from repro.sim.kernel import Simulator
from repro.topology.builder import LinkSpec, PathScenario, build_path
from repro.traffic.mix import attach_internet_mix
from repro.units import mbps, ms

#: The fourteen route entries of Table 2 (the first is the source host).
TABLE2_ROUTE = (
    "lena.cs.umd.edu",
    "avw1hub-gw.umd.edu",
    "csc2hub-gw.umd.edu",
    "192.221.38.5",
    "en-0.enss136.t3.nsf.net",
    "t3-1.Washington-DC-cnss58.t3.ans.net",
    "t3-3.Washington-DC-cnss56.t3.ans.net",
    "t3-0.New-York-cnss32.t3.ans.net",
    "t3-1.Cleveland-cnss40.t3.ans.net",
    "t3-0.Cleveland-cnss41.t3.ans.net",
    "t3-0.enss132.t3.ans.net",
    "externals.gw.pitt.edu",
    "136.142.2.54",
    "hub-eh.gw.pitt.edu",
)

#: Echo host beyond the last gateway.
ECHO_HOST = "unix.cis.pitt.edu"

#: Source host (first entry of Table 2).
SOURCE_HOST = TABLE2_ROUTE[0]

#: The narrowest link we model: the Pitt campus Ethernet.
BOTTLENECK_RATE_BPS = mbps(10)
BOTTLENECK_A = "externals.gw.pitt.edu"
BOTTLENECK_B = "136.142.2.54"


def build_umd_pitt(seed: int = 0,
                   utilization_fwd: float = 0.55,
                   utilization_rev: float = 0.45,
                   bulk_fraction: float = 0.85,
                   buffer_bytes: int = 30_000,
                   quantized_clock: bool = True) -> PathScenario:
    """Build the calibrated UMd-Pitt scenario (May 1993, T3 backbone)."""
    sim = Simulator(seed=seed)

    names = list(TABLE2_ROUTE) + [ECHO_HOST]
    ethernet = dict(rate_bps=mbps(10), queue_capacity=128)
    t3 = dict(rate_bps=mbps(45), queue_capacity=512)
    links = [
        LinkSpec(prop_delay=ms(0.1), **ethernet),   # lena - avw1hub
        LinkSpec(prop_delay=ms(0.1), **ethernet),   # avw1hub - csc2hub
        LinkSpec(prop_delay=ms(0.2), **ethernet),   # csc2hub - 192.221.38.5
        LinkSpec(prop_delay=ms(0.5), **t3),         # - enss136
        LinkSpec(prop_delay=ms(1.0), **t3),         # - DC cnss58
        LinkSpec(prop_delay=ms(0.2), **t3),         # - DC cnss56
        LinkSpec(prop_delay=ms(2.0), **t3),         # - NY cnss32
        LinkSpec(prop_delay=ms(3.5), **t3),         # - Cleveland cnss40
        LinkSpec(prop_delay=ms(0.2), **t3),         # - Cleveland cnss41
        LinkSpec(prop_delay=ms(1.0), **t3),         # - enss132
        LinkSpec(prop_delay=ms(0.8), **ethernet),   # - externals.gw.pitt
        LinkSpec(rate_bps=mbps(10), prop_delay=ms(0.2),  # campus bottleneck
                 queue_capacity=buffer_bytes, queue_mode=MODE_BYTES),
        LinkSpec(prop_delay=ms(0.1), **ethernet),   # - hub-eh.gw.pitt
        LinkSpec(prop_delay=ms(0.1), **ethernet),   # - echo host
    ]
    network = build_path(sim, names, links,
                         host_names=[SOURCE_HOST, ECHO_HOST])
    if quantized_clock:
        network.host(SOURCE_HOST).clock = QuantizedClock(sim, UMD_RESOLUTION)

    for name, attach in (("cross-a.pitt.edu", BOTTLENECK_A),
                         ("cross-b.pitt.edu", BOTTLENECK_B)):
        network.add_host(name)
        network.link(name, attach, rate_bps=mbps(100), prop_delay=ms(0.05),
                     queue_capacity=512)
    network.compute_routes()

    mix_fwd = attach_internet_mix(
        network.host("cross-a.pitt.edu"), network.host("cross-b.pitt.edu"),
        link_rate_bps=BOTTLENECK_RATE_BPS, utilization=utilization_fwd,
        bulk_fraction=bulk_fraction, window=6, window_interval=0.05,
        mean_file_packets=40.0,
        stream_prefix="mix.fwd") if utilization_fwd > 0 else None
    mix_rev = attach_internet_mix(
        network.host("cross-b.pitt.edu"), network.host("cross-a.pitt.edu"),
        link_rate_bps=BOTTLENECK_RATE_BPS, utilization=utilization_rev,
        bulk_fraction=bulk_fraction, window=6, window_interval=0.05,
        mean_file_packets=40.0, base_port=9100,
        stream_prefix="mix.rev") if utilization_rev > 0 else None

    return PathScenario(
        sim=sim, network=network, source=SOURCE_HOST, echo=ECHO_HOST,
        bottleneck_fwd=network.interface(BOTTLENECK_A, BOTTLENECK_B),
        bottleneck_rev=network.interface(BOTTLENECK_B, BOTTLENECK_A),
        mix_fwd=mix_fwd, mix_rev=mix_rev)
