"""Tests for probe-compression episode detection."""

import pytest

from repro.analysis.compression import detect_compression
from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace

MU = 128e3
SERVICE = 576.0 / MU  # 4.5 ms
DELTA = 0.02


def trace_with_episodes(episode_lengths, spacer=5, base=2.0):
    """Compression runs of the given lengths separated by flat stretches."""
    rtts = [base]
    for length in episode_lengths:
        for _ in range(length):
            rtts.append(rtts[-1] + SERVICE - DELTA)
        for _ in range(spacer):
            rtts.append(rtts[-1])  # flat: not compression (offset 0)
    return ProbeTrace.from_samples(delta=DELTA, rtts=rtts, wire_bytes=72)


class TestDetection:
    def test_counts_episodes(self):
        trace = trace_with_episodes([3, 1, 4])
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        assert len(report.episodes) == 3
        assert [e.length for e in report.episodes] == [3, 1, 4]

    def test_episode_probe_counts(self):
        trace = trace_with_episodes([2, 2])
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        # An episode of k compressed pairs spans k+1 probes.
        assert report.mean_episode_probes == pytest.approx(3.0)

    def test_pair_fraction(self):
        trace = trace_with_episodes([4], spacer=4)
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        assert report.pair_fraction == pytest.approx(4 / 8)

    def test_no_compression(self):
        rtts = [0.14] * 20
        trace = ProbeTrace.from_samples(delta=DELTA, rtts=rtts,
                                        wire_bytes=72)
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        assert len(report.episodes) == 0
        assert report.mean_episode_probes == 0.0

    def test_trailing_episode_closed(self):
        rtts = [2.0]
        for _ in range(3):
            rtts.append(rtts[-1] + SERVICE - DELTA)
        trace = ProbeTrace.from_samples(delta=DELTA, rtts=rtts,
                                        wire_bytes=72)
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        assert len(report.episodes) == 1
        assert report.episodes[0].length == 3

    def test_losses_break_episodes(self):
        rtts = [2.0]
        for _ in range(2):
            rtts.append(rtts[-1] + SERVICE - DELTA)
        rtts.append(0.0)  # loss
        last = [r for r in rtts if r > 0][-1]
        for _ in range(2):
            last = last + SERVICE - DELTA
            rtts.append(last)
        trace = ProbeTrace.from_samples(delta=DELTA, rtts=rtts,
                                        wire_bytes=72)
        report = detect_compression(trace, mu=MU, tolerance=1e-3)
        # Loss splits what would otherwise be one long episode.
        assert len(report.episodes) == 2

    def test_validation(self):
        trace = trace_with_episodes([1])
        with pytest.raises(AnalysisError):
            detect_compression(trace, mu=0.0)
        all_lost = ProbeTrace.from_samples(delta=DELTA, rtts=[0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            detect_compression(all_lost, mu=MU)


class TestOnRealSimulation:
    def test_compression_frequency_decreases_with_delta(self, loaded_trace,
                                                        loaded_trace_20ms):
        """The paper: compression becomes less frequent as δ increases."""
        report_20 = detect_compression(loaded_trace_20ms, mu=MU)
        report_50 = detect_compression(loaded_trace, mu=MU)
        assert report_20.pair_fraction > report_50.pair_fraction
        assert len(report_20.episodes) > 0
