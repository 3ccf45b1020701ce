#!/usr/bin/env python3
"""Watch the bottleneck queue breathe: the dynamics behind the phase plots.

The paper stresses "the importance of studying the dynamics, i.e. the
time-dependent behavior, of computer networks", citing the rapid queue
fluctuations Zhang et al. found in simulation [28, 29].  The simulator
makes those dynamics directly observable: this example taps the
transatlantic bottleneck, plots its queue occupancy over time, and relates
what the queue does to what the probes measured at the same moment.

Run:  python examples/queue_dynamics.py
"""

import numpy as np

from repro.net.packet import KIND_UDP
from repro.net.tap import PacketTap
from repro.netdyn.session import run_probe_experiment
from repro.plotting.ascii import line
from repro.topology.inria_umd import build_inria_umd


def main() -> None:
    scenario = build_inria_umd(seed=61)
    queue = scenario.bottleneck_fwd.queue
    tap = PacketTap(scenario.bottleneck_fwd, kinds={KIND_UDP})

    # Sample queue occupancy every 100 ms alongside the probe experiment.
    samples = []

    def sample() -> None:
        samples.append((scenario.sim.now, len(queue)))
        scenario.sim.schedule(0.1, sample)

    scenario.sim.call_at(0.0, sample)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=1200,
                                 start_at=10.0)

    occupancy = np.array([occ for _, occ in samples])
    print(line(occupancy, width=72, height=14,
               title="bottleneck queue occupancy (packets) over time",
               y_label="packets"))

    print(f"\nqueue: {queue.arrivals} arrivals, {queue.drops} drops "
          f"({queue.loss_fraction:.1%}), time-averaged occupancy "
          f"{queue.mean_packets():.1f} of {queue.capacity}")
    print(f"tap: {len(tap)} packets crossed, "
          f"{tap.throughput_bps() / 1e3:.0f} kb/s sustained "
          f"({tap.throughput_bps() / scenario.bottleneck_rate_bps:.0%} "
          f"of the link)")

    # Correlate the probes with the queue: rtt tracks occupancy.
    probe_rtts = trace.rtts[trace.received]
    print(f"probes: rtt spans {probe_rtts.min() * 1e3:.0f}.."
          f"{probe_rtts.max() * 1e3:.0f} ms; each queued packet ahead "
          f"adds one 552 B service time "
          f"({552 * 8 / scenario.bottleneck_rate_bps * 1e3:.1f} ms), so "
          f"the rtt swing of {np.ptp(probe_rtts) * 1e3:.0f} ms mirrors an "
          f"occupancy swing of ~{np.ptp(occupancy):.0f} packets per "
          f"direction.")


if __name__ == "__main__":
    main()
