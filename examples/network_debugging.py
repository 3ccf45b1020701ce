#!/usr/bin/env python3
"""Find a misbehaving gateway with periodic probing, NetDyn-style.

Sanghi et al. used NetDyn's dense probe trains to find real faults: a
gateway 'debug' option that stalled forwarding every 90 seconds, faulty
interface cards that randomly dropped packets, and route changes [21, 22].
The paper builds on exactly that tooling.

This example injects the same three faults into the calibrated topology and
shows how each one has a distinct signature in the probe trace:

* periodic stalls -> a spike train in the rtt series, whose cluster spacing
  is the stall period;
* faulty interface -> elevated *random* loss (runs test does not reject
  independence);
* route flap -> the minimum rtt alternates between two levels.

Run:  python examples/network_debugging.py
"""

import numpy as np

from repro.analysis.loss import loss_stats, runs_test
from repro.analysis.timeseries import periodic_spike_period
from repro.net.faults import PeriodicStallFault, RandomDropFault, RouteFlapFault
from repro.netdyn.session import run_probe_experiment
from repro.topology.inria_umd import build_inria_umd
from repro.units import mbps, ms


def debug_periodic_stall() -> None:
    """A gateway freezes for 1 s every 90 s (the 'debug option' bug).

    The stall adds a full second to the rtts it hits — far beyond the
    congestion ceiling of this path — so thresholding on extreme rtts and
    measuring the spacing of the spike clusters exposes the period.
    """
    scenario = build_inria_umd(seed=31, utilization_fwd=0.3,
                               utilization_rev=0.3, fault_drop_prob=0.0)
    stall = PeriodicStallFault(period=90.0, stall=1.0)
    scenario.bottleneck_fwd.add_egress_fault(stall)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.1, count=5400,
                                 start_at=10.0)
    period = periodic_spike_period(trace, threshold=0.8)
    print(f"[stall] spike clusters every {period:.0f} s "
          f"(injected: 90 s) -> "
          f"{'FOUND' if 80 <= period <= 100 else 'missed'}")


def debug_faulty_interface() -> None:
    """An interface card drops 5% of packets at random."""
    scenario = build_inria_umd(seed=32, utilization_fwd=0.2,
                               utilization_rev=0.2, fault_drop_prob=0.0)
    fault = RandomDropFault(0.05, scenario.sim.streams.get("debug.fault"))
    scenario.network.interface("nss-SURA-eth.sura.net",
                               "sura8-umd-c1.sura.net").add_egress_fault(fault)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=4000,
                                 start_at=10.0)
    stats = loss_stats(trace)
    randomness = runs_test(trace)
    print(f"[faulty card] ulp {stats.ulp:.3f} with clp {stats.clp:.3f}; "
          f"runs test p = {randomness.p_value:.2f} -> "
          f"{'random drops (hardware?)' if randomness.looks_random() else 'bursty (congestion?)'}")


def debug_route_flap() -> None:
    """Routing alternates between the normal path and a long detour."""
    scenario = build_inria_umd(seed=33, utilization_fwd=0.2,
                               utilization_rev=0.2, fault_drop_prob=0.0)
    network = scenario.network
    # A backup transatlantic link with much longer propagation delay.
    network.link("sophia-gw.atlantic.fr", "Ithaca1.NY.NSS.NSF.NET",
                 rate_bps=mbps(1.5), prop_delay=ms(130))
    network.compute_routes()  # still prefers the short path
    flap = RouteFlapFault(scenario.sim,
                          network.node("sophia-gw.atlantic.fr"),
                          destination=scenario.echo,
                          primary_peer="icm-sophia.icp.net",
                          backup_peer="Ithaca1.NY.NSS.NSF.NET",
                          period=30.0)
    flap.install()
    scenario.start_traffic()
    trace = run_probe_experiment(network, scenario.source, scenario.echo,
                                 delta=0.1, count=1200, start_at=5.0)
    # Two delay floors = two routes: compare per-window minima.
    windows = np.array_split(trace.rtts[trace.received], 12)
    floors = np.array([w.min() for w in windows if len(w)]) * 1e3
    low, high = floors.min(), floors.max()
    print(f"[route flap] per-window rtt floors range "
          f"{low:.0f}..{high:.0f} ms -> "
          f"{'two routes detected' if high - low > 50 else 'stable route'} "
          f"({flap.flaps} flaps injected)")


def main() -> None:
    debug_periodic_stall()
    debug_faulty_interface()
    debug_route_flap()


if __name__ == "__main__":
    main()
