#!/usr/bin/env python3
"""Observe ACK compression — the phenomenon probe compression is named for.

Zhang, Shenker and Clark [29] showed in simulation (and Mogul [18] in NSFNET
traces) that two-way TCP traffic clusters acknowledgements: ACKs queued
behind large data packets of the *reverse* path leave that queue
back-to-back, so they arrive at the data sender far closer together than
the data packets that triggered them.  Bolot names probe compression after
exactly this effect.

This example runs a mini-TCP transfer while bulk traffic congests the
reverse (ACK) path, and compares ACK inter-arrival times at the sender with
the ACK clock's natural spacing (one data-segment service time).

Run:  python examples/ack_compression.py
"""

import numpy as np

from repro.net.routing import Network
from repro.net.transport import start_transfer
from repro.sim.kernel import Simulator
from repro.traffic.ftp import FtpSource
from repro.traffic.base import TrafficSink
from repro.units import kbps, ms, seconds_to_ms

#: The shared bottleneck rate, both directions.
RATE = kbps(256)

#: Natural ACK spacing: one 552-byte data segment's service time.
SEGMENT_SERVICE = 552 * 8 / RATE


def build_network(sim):
    network = Network(sim)
    for name in ("tcp-src", "tcp-dst", "cross-src", "cross-dst"):
        network.add_host(name)
    network.add_router("r1")
    network.add_router("r2")
    network.link("tcp-src", "r1", rate_bps=10e6, prop_delay=ms(1))
    network.link("r1", "r2", rate_bps=RATE, prop_delay=ms(20),
                 queue_capacity=30)
    network.link("r2", "tcp-dst", rate_bps=10e6, prop_delay=ms(1))
    # Cross traffic crosses the bottleneck in the REVERSE direction,
    # sharing the queue that carries the ACKs.
    network.link("cross-src", "r2", rate_bps=10e6, prop_delay=ms(1))
    network.link("r1", "cross-dst", rate_bps=10e6, prop_delay=ms(1))
    network.compute_routes()
    return network


def ack_gaps(sim, with_reverse_traffic):
    network = build_network(sim)
    if with_reverse_traffic:
        sink = TrafficSink(network.host("cross-dst"), port=9000)
        ftp = FtpSource(network.host("cross-src"), "cross-dst",
                        session_rate=0.4, mean_file_packets=30.0, window=6,
                        window_interval=0.3, port=9000)
        ftp.start()

    arrivals = []
    sender_host = network.host("tcp-src")
    sender, receiver = start_transfer(sender_host, network.host("tcp-dst"),
                                      port=5000, total_segments=100_000,
                                      at=5.0)
    original = sender._on_ack

    def timestamped(packet):
        arrivals.append(sim.now)
        original(packet)

    sender_host.unbind_udp(5000)
    sender_host.bind_udp(5000, timestamped)
    sim.run(until=90.0)
    sender.close()
    return np.diff(arrivals)


def main() -> None:
    quiet = ack_gaps(Simulator(seed=41), with_reverse_traffic=False)
    congested = ack_gaps(Simulator(seed=41), with_reverse_traffic=True)

    for label, gaps in (("quiet reverse path", quiet),
                        ("congested reverse path", congested)):
        compressed = np.mean(gaps < 0.5 * SEGMENT_SERVICE)
        print(f"{label:24s}: {len(gaps):5d} ACKs, median gap "
              f"{seconds_to_ms(np.median(gaps)):6.1f} ms, "
              f"{compressed:.1%} compressed "
              f"(< half a segment service time)")

    print(f"\nnatural ACK-clock spacing is one segment service time "
          f"({seconds_to_ms(SEGMENT_SERVICE):.1f} ms); ACKs arriving much "
          f"closer together were compressed behind reverse-path data "
          f"packets — the effect probe compression is named after.")


if __name__ == "__main__":
    main()
