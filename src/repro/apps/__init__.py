"""Application-level consumers of the measurements (Section 5).

:mod:`~repro.apps.fec` implements the open-loop loss-repair schemes the
paper recommends for audio/video; :mod:`~repro.apps.playout` sizes and
simulates playback buffers against measured delay distributions.
"""

from repro.apps.fec import (
    RepairReport,
    evaluate_repair,
    interleaved_xor_fec,
    repeat_last,
    xor_fec,
)
from repro.apps.playout import (
    AdaptivePlayout,
    PlayoutReport,
    playout_delay_for_loss,
)

__all__ = [
    "RepairReport",
    "evaluate_repair",
    "repeat_last",
    "xor_fec",
    "interleaved_xor_fec",
    "AdaptivePlayout",
    "PlayoutReport",
    "playout_delay_for_loss",
]
