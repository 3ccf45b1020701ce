#!/usr/bin/env python3
"""Estimate a path's bottleneck bandwidth from probe phase plots.

Section 4 of the paper turns the probe-compression line into a measurement
instrument: the line ``rtt_{n+1} = rtt_n + P/μ − δ`` crosses the x-axis at
``δ − P/μ``, so reading the intercept off a phase plot yields the
bottleneck service rate μ.  Bolot reads 48 ms at δ = 50 ms and recovers
~130 kb/s for the actual 128 kb/s transatlantic link.

This example repeats the estimate at several probe intervals and at a
second, faster path, showing where the technique works (δ small enough for
probes to queue behind each other) and where it degrades.

Run:  python examples/bottleneck_estimation.py
"""

from repro.analysis.phase import fit_compression_line, phase_points
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_experiment


def estimate(title: str, scenario_name: str, deltas, count: int = 4000,
             tolerance: float = 4e-3, **scenario_kwargs) -> None:
    print(f"--- {title}")
    for delta in deltas:
        result = execute_experiment(ExperimentConfig(
            delta=delta, duration=count * delta, seed=11, warmup=20.0,
            scenario=scenario_name, scenario_kwargs=scenario_kwargs,
            mode="analytic"))
        trace, scenario = result.trace, result.scenario
        fit = fit_compression_line(phase_points(trace),
                                   mu_hint=scenario.bottleneck_rate_bps,
                                   tolerance=tolerance)
        actual = scenario.bottleneck_rate_bps / 1e3
        if fit.mu_estimate is None:
            print(f"  delta={delta * 1e3:5.0f} ms: no compression line "
                  f"(too few compressed probes) — actual {actual:.0f} kb/s")
            continue
        clock = float(trace.meta.get("clock_resolution", 0.0) or 0.0)
        caveat = ""
        if clock and trace.wire_bytes * 8 / fit.mu_estimate < clock:
            caveat = "  [P/mu below clock resolution: unreliable]"
        print(f"  delta={delta * 1e3:5.0f} ms: {fit.point_count:5d} points "
              f"on the line, mu ~= {fit.mu_estimate / 1e3:7.0f} kb/s "
              f"(actual {actual:.0f} kb/s){caveat}")


def main() -> None:
    estimate("INRIA -> UMd (128 kb/s transatlantic bottleneck)",
             "inria-umd", deltas=(0.020, 0.050, 0.100))
    # On the fast path P/mu is ~58 us — far below the UMd host's 3 ms clock
    # tick, so the intercept cannot be read from quantized timestamps (the
    # paper likewise declines to name this path's bottleneck).  With a
    # perfect clock and a tight band the technique works again.
    estimate("UMd -> Pittsburgh, 3 ms host clock (as measured)",
             "umd-pitt", deltas=(0.008,))
    estimate("UMd -> Pittsburgh, perfect host clock (counterfactual)",
             "umd-pitt", deltas=(0.002,), tolerance=5e-5,
             quantized_clock=False)


if __name__ == "__main__":
    main()
