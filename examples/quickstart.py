#!/usr/bin/env python3
"""Quickstart: probe the simulated INRIA-UMd path and analyze the trace.

This is the paper's core experiment in ~30 lines: send 32-byte UDP probes
every 50 ms across the calibrated Table-1 topology (128 kb/s transatlantic
bottleneck, live cross traffic), then compute the delay and loss statistics
of Sections 4 and 5.

Run:  python examples/quickstart.py
"""

from repro.analysis.loss import loss_stats
from repro.analysis.phase import estimate_bottleneck_mu, phase_points
from repro.analysis.timeseries import summarize
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_experiment
from repro.plotting.ascii import scatter


def main() -> None:
    # One NetDyn experiment on the calibrated scenario: delta = 50 ms,
    # 2 simulated minutes, starting after a 30 s cross-traffic warm-up.
    # The analytic engine replays the bottleneck queue exactly (it falls
    # back to the event simulation when a scenario is not eligible).
    result = execute_experiment(ExperimentConfig(
        delta=0.050, duration=120.0, seed=7, warmup=30.0,
        scenario="inria-umd", mode="analytic"))
    trace, scenario = result.trace, result.scenario

    delay = summarize(trace)
    print(f"probes: {len(trace)}  received: {delay.count}")
    print(f"rtt ms: min {delay.minimum * 1e3:.1f}  "
          f"mean {delay.mean * 1e3:.1f}  p99 {delay.p99 * 1e3:.1f}  "
          f"max {delay.maximum * 1e3:.1f}")

    losses = loss_stats(trace)
    print(f"loss: ulp {losses.ulp:.3f}  clp {losses.clp:.3f}  "
          f"plg {losses.plg:.2f}")

    # The phase-plot bandwidth estimator of Section 4.
    mu = estimate_bottleneck_mu(trace, mu_hint=scenario.bottleneck_rate_bps)
    print(f"bottleneck: actual {scenario.bottleneck_rate_bps / 1e3:.0f} kb/s,"
          f" estimated {mu / 1e3:.0f} kb/s" if mu else "no estimate")

    plot = phase_points(trace)
    print()
    print(scatter(plot.x * 1e3, plot.y * 1e3, diagonal=True,
                  title="Phase plot: rtt_n+1 vs rtt_n (ms)",
                  x_label="rtt ms"))


if __name__ == "__main__":
    main()
