#!/usr/bin/env python3
"""Can open-loop error control repair audio loss on this path?  (Section 5.)

The paper's loss analysis exists to answer an application question: audio
tools send packets at fixed intervals (22.5–125 ms), and open-loop error
control — FEC, or simply repeating the previous packet — only works when
losses are *isolated*.  Bolot finds the loss gap stays near 1 and concludes
FEC would be adequate.

This example measures loss traces at audio-like intervals on the calibrated
path and evaluates the schemes from :mod:`repro.apps.fec`:

* ``repeat-last``: conceal a loss with the previous packet's audio;
* ``xor-fec(4)``: one XOR parity per 4 data packets [23];
* ``interleaved(4x4)``: the same parity over interleaved groups.

It also sizes the playback buffer (:mod:`repro.apps.playout`), the other
delay-distribution question the paper raises.

Run:  python examples/audio_fec.py
"""

from repro.analysis.loss import loss_stats
from repro.apps.fec import evaluate_repair
from repro.apps.playout import AdaptivePlayout, playout_delay_for_loss
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_experiment


def main() -> None:
    # Audio packetization intervals from the paper's discussion:
    # 22.5 ms [24] to 125 ms [27].
    for interval in (0.0225, 0.0625, 0.125):
        # Three minutes of audio after a 30 s cross-traffic warm-up.
        trace = execute_experiment(ExperimentConfig(
            delta=interval, duration=180.0, seed=23, warmup=30.0,
            scenario="inria-umd", mode="analytic")).trace
        stats = loss_stats(trace)
        repair = evaluate_repair(trace, group=4, depth=4)
        print(f"audio interval {interval * 1e3:6.1f} ms: "
              f"ulp {stats.ulp:.3f}  plg {stats.plg:.2f}")
        print(f"    residual loss: repeat-last {repair.repeat_last:.3f}, "
              f"xor-fec(4) {repair.xor_fec:.3f}, "
              f"interleaved(4x4) {repair.interleaved:.3f} "
              f"-> best: {repair.best_scheme()}")

        buffer_delay = playout_delay_for_loss(trace, target_late_loss=0.01)
        adaptive = AdaptivePlayout().play(trace)
        print(f"    playback buffer: fixed {buffer_delay * 1e3:.0f} ms for "
              f"1% late loss; adaptive averages "
              f"{adaptive.playout_delay * 1e3:.0f} ms "
              f"({adaptive.late_loss:.1%} late)")

    print("\nloss gap ~1 means isolated losses: open-loop schemes recover "
          "most packets, as the paper concludes.")


if __name__ == "__main__":
    main()
