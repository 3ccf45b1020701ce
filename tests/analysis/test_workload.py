"""Tests for equation-(6) workload estimation and peak classification."""

import numpy as np
import pytest

from repro.analysis.workload import (
    classify_peaks,
    find_peaks,
    probe_gap_samples,
    workload_distribution,
)
from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace

MU = 128e3
WIRE_BITS = 576.0
SERVICE = WIRE_BITS / MU  # 4.5 ms


def trace_with_gaps(gaps, delta=0.02):
    """Build a trace whose consecutive rtt differences are gaps - delta.

    The base rtt is raised so a long run of compression gaps (which shrink
    the rtt by ``delta - gap`` each step) never drives it negative; the
    analysis only ever looks at differences.
    """
    steps = np.asarray(gaps, dtype=float) - delta
    cumulative = np.concatenate([[0.0], np.cumsum(steps)])
    base = 0.14 + max(0.0, -float(cumulative.min()))
    rtts = base + cumulative
    return ProbeTrace.from_samples(delta=delta, rtts=rtts.tolist(),
                                   wire_bytes=72)


def two_stage_waits(delta, batch_bits, mu=MU, probe_bits=WIRE_BITS):
    """Probe waits of Section 4's two-stage Lindley recursion.

    Probe ``n`` arrives at ``n δ``; a batch of ``b_n`` bits arrives ``δ/2``
    later, and both are served at ``mu``.
    """
    waits = [0.0]
    for bits in batch_bits:
        batch_wait = max(0.0, waits[-1] + probe_bits / mu - delta / 2)
        waits.append(max(0.0, batch_wait + bits / mu - delta / 2))
    return np.asarray(waits)


class TestProbeGapSamples:
    def test_equals_rtt_difference_plus_delta(self):
        trace = ProbeTrace.from_samples(delta=0.02, rtts=[0.10, 0.13, 0.12])
        samples = probe_gap_samples(trace)
        assert samples == pytest.approx([0.05, 0.01])

    def test_losses_excluded(self):
        trace = ProbeTrace.from_samples(delta=0.02,
                                        rtts=[0.10, 0.0, 0.12, 0.13])
        samples = probe_gap_samples(trace)
        assert len(samples) == 1  # only the (0.12, 0.13) pair

    def test_no_pairs_raises(self):
        trace = ProbeTrace.from_samples(delta=0.02, rtts=[0.1, 0.0, 0.1])
        with pytest.raises(InsufficientDataError):
            probe_gap_samples(trace)


class TestWorkloadDistribution:
    def test_histogram_covers_samples(self):
        gaps = [SERVICE] * 50 + [0.02] * 50
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU)
        assert dist.counts.sum() == len(gaps)

    def test_batch_bits_equation_six(self):
        gaps = [0.035]  # the paper's worked example
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU)
        # b = mu * 0.035 - P = 4480 - 576 = 3904 bits = 488 bytes.
        assert dist.batch_bits()[0] == pytest.approx(3904.0)

    def test_batch_bits_recover_batches_when_busy(self):
        """Equation (6) inverts the recursion while the queue stays busy."""
        rng = np.random.default_rng(7)
        # Heavy load so the queue never empties between probes.
        batches = rng.uniform(0.8, 1.4, size=200) * 0.02 * MU
        waits = two_stage_waits(0.02, batches)
        trace = ProbeTrace.from_samples(delta=0.02,
                                        rtts=(0.14 + waits).tolist(),
                                        wire_bytes=72)
        estimated = workload_distribution(trace, mu=MU).batch_bits()
        busy = waits[:-1] > 0.02  # definitely no idle period before next
        assert np.allclose(estimated[busy], batches[busy], rtol=1e-9)

    def test_batch_bits_idle_queue_reads_delta_peak(self):
        """When the buffer empties, eq. (6) does not hold.

        An idle queue gives ``w_{n+1} = w_n = 0``, so the estimator returns
        ``μ δ − P`` whatever the true (tiny) batch: the δ-peak of Figures
        8/9 means 'idle', not a real workload of ``μ δ − P`` bits.
        """
        batches = np.zeros(10)
        batches[5] = 320.0  # a tiny batch into an idle queue
        waits = two_stage_waits(0.05, batches)
        trace = ProbeTrace.from_samples(delta=0.05,
                                        rtts=(0.14 + waits).tolist(),
                                        wire_bytes=72)
        estimated = workload_distribution(trace, mu=MU).batch_bits()
        assert estimated[5] == pytest.approx(MU * 0.05 - WIRE_BITS)
        assert estimated[5] != pytest.approx(batches[5])

    def test_validation(self):
        trace = trace_with_gaps([0.02] * 5)
        with pytest.raises(AnalysisError):
            workload_distribution(trace, mu=0.0)
        with pytest.raises(AnalysisError):
            workload_distribution(trace, mu=MU, bin_width=0.0)


class TestFindPeaks:
    def test_finds_isolated_modes(self):
        gaps = [SERVICE] * 100 + [0.02] * 60 + [0.039] * 30
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU,
                                     bin_width=2e-3)
        peaks = find_peaks(dist, min_height_fraction=0.05)
        locations = sorted(p.location for p in peaks)
        assert len(locations) == 3
        assert locations[0] == pytest.approx(SERVICE, abs=2e-3)
        assert locations[1] == pytest.approx(0.02, abs=2e-3)
        assert locations[2] == pytest.approx(0.039, abs=2e-3)

    def test_tallest_first(self):
        gaps = [SERVICE] * 100 + [0.02] * 10
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU)
        peaks = find_peaks(dist, min_height_fraction=0.01)
        assert peaks[0].height >= peaks[-1].height

    def test_min_height_filters(self):
        gaps = [SERVICE] * 100 + [0.039] * 2
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU)
        peaks = find_peaks(dist, min_height_fraction=0.1)
        assert all(abs(p.location - 0.039) > 1e-3 for p in peaks)

    def test_implied_bytes(self):
        gaps = [0.039] * 100 + [SERVICE] * 50
        dist = workload_distribution(trace_with_gaps(gaps), mu=MU)
        peaks = find_peaks(dist, min_height_fraction=0.1)
        one_packet = max(peaks, key=lambda p: p.location)
        # mu * 0.039 - 576 bits = 4416 bits = 552 bytes.
        assert one_packet.implied_bytes == pytest.approx(552.0, abs=32.0)


class TestClassifyPeaks:
    def make_classified(self, gaps, delta=0.02):
        dist = workload_distribution(trace_with_gaps(gaps, delta=delta),
                                     mu=MU, bin_width=2e-3)
        peaks = find_peaks(dist, min_height_fraction=0.02)
        return classify_peaks(peaks, delta=delta, mu=MU,
                              probe_bits=WIRE_BITS, tolerance=3e-3)

    def test_three_mechanisms_separated(self):
        gaps = [SERVICE] * 100 + [0.02] * 60 + [0.039] * 30
        classified = self.make_classified(gaps)
        assert classified["compression"] is not None
        assert classified["idle"] is not None
        assert classified["one_packet"] is not None
        assert classified["compression"].location == pytest.approx(
            SERVICE, abs=2e-3)
        assert classified["idle"].location == pytest.approx(0.02, abs=2e-3)
        assert classified["one_packet"].location == pytest.approx(
            0.039, abs=2e-3)

    def test_one_packet_found_below_delta(self):
        """Workload peaks sit at (S+P)/mu regardless of delta (eq. 6)."""
        gaps = [SERVICE] * 100 + [0.1] * 60 + [0.039] * 30
        classified = self.make_classified(gaps, delta=0.1)
        assert classified["one_packet"] is not None
        assert classified["one_packet"].location == pytest.approx(
            0.039, abs=2e-3)

    def test_absent_mechanisms_are_none(self):
        gaps = [0.02] * 100  # idle only
        classified = self.make_classified(gaps)
        assert classified["compression"] is None
        assert classified["one_packet"] is None
        assert classified["idle"] is not None


class TestOnRealSimulation:
    def test_figure8_peak_structure(self, loaded_trace_20ms):
        resolution = loaded_trace_20ms.meta["clock_resolution"]
        dist = workload_distribution(loaded_trace_20ms, mu=MU,
                                     bin_width=max(2e-3, resolution))
        peaks = find_peaks(dist, min_height_fraction=0.004)
        classified = classify_peaks(peaks, delta=0.02, mu=MU,
                                    probe_bits=WIRE_BITS,
                                    tolerance=max(4e-3, resolution))
        assert classified["compression"] is not None
        assert classified["idle"] is not None
        assert classified["one_packet"] is not None
        # One cross packet = one 512 B FTP packet + overhead.
        assert 400 <= classified["one_packet"].implied_bytes <= 700
