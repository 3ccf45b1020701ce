"""Playback (playout) buffer simulation for packet audio.

Section 5 and the cited NeVoT work [24] motivate the delay analysis with
playback buffering: an audio receiver schedules each packet's playout at
``send_time + playout_delay``; packets arriving later than their deadline
are as good as lost.  The "shape of the delay distribution is crucial for
the proper sizing of playback buffers".

:func:`playout_delay_for_loss` sizes one playout delay for the whole
session from the measured delays; :class:`AdaptivePlayout` is the classic
exponentially-smoothed mean + k·deviation estimator adjusting between
talkspurts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class PlayoutReport:
    """Outcome of playing one trace through a playout policy."""

    #: Fraction of packets that never arrived (network loss).
    network_loss: float
    #: Fraction of packets that arrived after their deadline.
    late_loss: float
    #: Mean buffering delay of on-time packets, seconds.
    mean_buffering: float
    #: The playout delay(s) used, seconds (mean for adaptive).
    playout_delay: float


def _arrival_delays(trace: ProbeTrace) -> np.ndarray:
    """One-way-ish delays: rtts stand in for delivery delays (NaN = lost)."""
    return np.where(trace.received, trace.rtts, np.nan)


class AdaptivePlayout:
    """Exponentially-smoothed playout estimation (Ramjee et al. style).

    Tracks ``d_hat`` (smoothed delay) and ``v_hat`` (smoothed deviation)
    over arrivals; the playout delay applied to each packet is
    ``d_hat + safety * v_hat`` as of the previous packet (adaptation
    between packets stands in for between-talkspurt adaptation).
    """

    def __init__(self, alpha: float = 0.998, safety: float = 4.0) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if safety < 0:
            raise ConfigurationError(f"safety must be >= 0, got {safety}")
        self.alpha = alpha
        self.safety = safety

    def play(self, trace: ProbeTrace) -> PlayoutReport:
        """Run the adaptive policy over a trace."""
        delays = _arrival_delays(trace)
        received = ~np.isnan(delays)
        if not received.any():
            raise InsufficientDataError("no received packets")
        first = float(delays[received][0])
        d_hat, v_hat = first, first / 2.0
        on_time = 0
        late = 0
        buffering_total = 0.0
        playout_total = 0.0
        playouts = 0
        for delay in delays:
            deadline = d_hat + self.safety * v_hat
            playout_total += deadline
            playouts += 1
            if np.isnan(delay):
                continue
            if delay <= deadline:
                on_time += 1
                buffering_total += deadline - delay
            else:
                late += 1
            v_hat = (self.alpha * v_hat
                     + (1.0 - self.alpha) * abs(delay - d_hat))
            d_hat = self.alpha * d_hat + (1.0 - self.alpha) * delay
        total = len(delays)
        return PlayoutReport(
            network_loss=float(np.mean(~received)),
            late_loss=late / total,
            mean_buffering=buffering_total / on_time if on_time else 0.0,
            playout_delay=playout_total / playouts)


def playout_delay_for_loss(trace: ProbeTrace,
                           target_late_loss: float) -> float:
    """Smallest fixed playout delay keeping late loss <= target.

    This is the paper's "proper sizing of playback buffers" question,
    answered empirically from the measured delay distribution.
    """
    if not 0.0 < target_late_loss < 1.0:
        raise ConfigurationError(
            f"target must be in (0, 1), got {target_late_loss}")
    delays = _arrival_delays(trace)
    received = delays[~np.isnan(delays)]
    if received.size == 0:
        raise InsufficientDataError("no received packets")
    # Late loss is measured over all packets, so the quantile must be
    # taken among received packets adjusted for the loss fraction.
    allowed_late = target_late_loss * delays.size
    if allowed_late >= received.size:
        return float(received.min())
    quantile = 1.0 - allowed_late / received.size
    return float(np.quantile(received, quantile))
