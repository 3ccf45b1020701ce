"""The calibration targets of DESIGN.md, checked executably.

DESIGN.md states the calibration targets (fixed delay D ≈ 140 ms, 128 kb/s
bottleneck, K = 15 packets ≈ 620 ms max queueing, ~3% random-fault loss
floor, bulk-dominated cross traffic at ~70% utilization).  These tests turn
those prose claims into a checkable report, so any change to the topology
or traffic defaults that silently drifts away from the paper's physics
fails a test instead of quietly skewing every figure.
"""

from repro.analysis.loss import loss_stats
from repro.experiments.figures import FigureResult
from repro.netdyn.session import run_probe_experiment
from repro.topology.inria_umd import build_inria_umd
from repro.units import bps_to_kbps, seconds_to_ms


def calibration_report(seed, duration):
    """Measure the calibrated scenario and compare against the targets."""
    result = FigureResult(
        "Calibration", "INRIA-UMd scenario vs its stated physical targets")

    # --- Fixed path physics: idle network. -----------------------------
    idle = build_inria_umd(seed=seed, utilization_fwd=0.0,
                           utilization_rev=0.0, fault_drop_prob=0.0)
    idle_trace = run_probe_experiment(idle.network, idle.source, idle.echo,
                                      delta=0.05, count=100)
    d_ms = seconds_to_ms(idle_trace.min_rtt())
    result.add("fixed round trip D", "~140 ms", f"{d_ms:.1f} ms",
               125.0 <= d_ms <= 155.0)
    result.add("idle path lossless", "0", f"{idle_trace.loss_count}",
               idle_trace.loss_count == 0)
    result.add("bottleneck rate", "128 kb/s",
               f"{bps_to_kbps(idle.bottleneck_rate_bps):.0f} kb/s",
               idle.bottleneck_rate_bps == 128_000)

    # --- Fault floor: faults only, no congestion. -----------------------
    faulty = build_inria_umd(seed=seed, utilization_fwd=0.0,
                             utilization_rev=0.0)
    fault_trace = run_probe_experiment(faulty.network, faulty.source,
                                       faulty.echo, delta=0.05,
                                       duration=duration)
    fault_loss = loss_stats(fault_trace)
    result.add("random-fault loss floor", "~3% (2 x 1.5%, [17])",
               f"{fault_loss.ulp:.1%}", 0.015 <= fault_loss.ulp <= 0.05)
    result.add("fault losses random", "clp ~ ulp",
               f"clp {fault_loss.clp:.2f} vs ulp {fault_loss.ulp:.2f}",
               abs(fault_loss.clp - fault_loss.ulp) < 0.05)

    # --- Loaded behavior: the calibrated defaults. -----------------------
    loaded = build_inria_umd(seed=seed)
    loaded.start_traffic()
    loaded_trace = run_probe_experiment(loaded.network, loaded.source,
                                        loaded.echo, delta=0.05,
                                        duration=duration, start_at=30.0)
    utilization = loaded.bottleneck_fwd.utilization_estimate()
    result.add("bottleneck utilization (fwd, incl. probes)", "~0.75-0.9",
               f"{utilization:.2f}", 0.6 <= utilization <= 0.95)
    max_queueing_ms = seconds_to_ms(
        float(loaded_trace.valid_rtts.max()) - idle_trace.min_rtt())
    result.add("max round-trip queueing", "~620 ms (paper's maximum)",
               f"{max_queueing_ms:.0f} ms", 350.0 <= max_queueing_ms <= 900.0)
    loaded_loss = loss_stats(loaded_trace)
    result.add("loss at δ = 50 ms", "0.12 (Table 3)",
               f"{loaded_loss.ulp:.2f}", 0.05 <= loaded_loss.ulp <= 0.20)
    result.add("buffer capacity", "K = 15 packets",
               f"{loaded.bottleneck_fwd.queue.capacity} "
               f"{loaded.bottleneck_fwd.queue.mode}",
               loaded.bottleneck_fwd.queue.capacity == 15
               and loaded.bottleneck_fwd.queue.mode == "packets")
    return result


def test_calibration_targets_hold():
    result = calibration_report(seed=1, duration=90.0)
    assert result.all_ok, f"\n{result.summary()}"


def test_calibration_report_structure():
    result = calibration_report(seed=2, duration=60.0)
    names = [row.name for row in result.rows]
    assert "fixed round trip D" in names
    assert "bottleneck rate" in names
    assert any("fault" in n for n in names)
    assert any("utilization" in n for n in names)
