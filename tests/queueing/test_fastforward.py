"""Tests for the fast-forward bottleneck queue."""

import math

import numpy as np
import pytest

import repro.queueing.fastforward as qff
from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS
from repro.queueing.fastforward import (
    bottleneck_pass,
    drop_tail_walk,
    fifo_waits,
)

RATE = 128e3
PROBE_BITS = 576.0


class TestFifoWaits:
    def test_matches_lindley_on_a_poisson_stream(self, rng):
        times = np.sort(rng.uniform(0.0, 50.0, size=400))
        bits = rng.choice([576.0, 4416.0], size=400)
        waits = fifo_waits(times, bits, RATE)
        gaps = np.empty_like(times)
        gaps[:-1] = np.diff(times)
        gaps[-1] = 0.0
        assert np.array_equal(waits, lindley_waits(bits / RATE, gaps))

    def test_empty_stream(self):
        assert fifo_waits([], [], RATE).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fifo_waits([0.0], [1.0, 2.0], RATE)
        with pytest.raises(ConfigurationError):
            fifo_waits([0.0, 1.0], [1.0, 2.0], 0.0)
        with pytest.raises(ConfigurationError):
            fifo_waits([1.0, 0.0], [1.0, 2.0], RATE)


def walk(times, bits, probes, end_time, capacity=15, mode=MODE_PACKETS):
    return drop_tail_walk(times, bits, probes, end_time, RATE, capacity,
                          mode)


class TestFluidQueueWaits:
    def test_single_packet_served_at_rate(self):
        # One one-second packet; a probe leaves one service time after
        # the later of its arrival and that packet's finish.
        for at in (0.0, 0.25, 2.0):
            result = walk([0.0, at], [RATE, PROBE_BITS], [False, True],
                          at + 10.0)
            assert result.exits == [max(at, 1.0) + PROBE_BITS / RATE]
            assert result.stats["departures"] == 2.0

    def test_workload_before_offer_is_the_lindley_wait(self, rng):
        # Through a buffer that never fills, each packet starts after its
        # Lindley wait: the finish chain gives the closed form's exits up
        # to the rounding of its prefix sums.
        times = np.sort(rng.uniform(0.0, 30.0, size=300))
        bits = rng.choice([576.0, 4416.0], size=300)
        expected = times + fifo_waits(times, bits, RATE) + bits / RATE
        result = walk(times.tolist(), bits.tolist(), [True] * 300,
                      float(times[-1]), capacity=10_000)
        assert result.admitted == [True] * 300
        assert np.allclose(result.exits, expected, rtol=0.0, atol=1e-12)
        assert result.stats["drops"] == 0.0
        assert result.stats["arrivals"] == 300.0


class TestFluidQueueDrops:
    def test_packet_capacity_excludes_in_service_packet(self):
        # Idle server: one packet goes into service, K wait, rest drop.
        result = walk([0.0] * 20, [PROBE_BITS] * 20, [True] * 20, 1.0)
        assert result.admitted == [True] * 16 + [False] * 4
        assert result.stats["drops"] == 4.0
        # The last one admitted leaves behind the one in service and the
        # 14 buffered ahead of it; a dropped one never leaves.
        assert result.exits[15] == pytest.approx(16 * PROBE_BITS / RATE)
        assert all(math.isnan(exit) for exit in result.exits[16:])

    def test_busy_server_admits_only_capacity(self):
        # A one-second packet holds the server.
        result = walk([0.0] * 6, [RATE] + [PROBE_BITS] * 5,
                      [False] + [True] * 5, 1.0, capacity=2)
        assert result.admitted == [True, True, False, False, False]
        assert result.stats["drops"] == 3.0

    def test_byte_capacity(self):
        # 100 B in service holds no buffer bytes; of three 400-byte
        # packets two fit in 1000 free bytes, the third drops.
        result = walk([0.0] * 4, [800.0] + [3200.0] * 3,
                      [False] + [True] * 3, 1.0, capacity=1000,
                      mode=MODE_BYTES)
        assert result.admitted == [True, True, False]
        assert result.stats["drops"] == 1.0
        assert result.exits[1] == pytest.approx((800.0 + 2 * 3200.0) / RATE)

    def test_oversized_packet_drops_even_when_idle(self):
        result = walk([0.0, 0.0], [8 * 101.0, PROBE_BITS], [True, True],
                      1.0, capacity=100, mode=MODE_BYTES)
        assert result.admitted == [False, True]
        assert math.isnan(result.exits[0])
        assert result.exits[1] == PROBE_BITS / RATE
        assert result.stats["drops"] == 1.0

    def test_packet_exactly_filling_idle_server_is_accepted(self):
        result = walk([0.0], [8 * 100.0], [True], 1.0, capacity=100,
                      mode=MODE_BYTES)
        assert result.admitted == [True]

    def test_server_draining_frees_buffer_slots(self):
        # The first packet serves until t=0.5 and the second fills the
        # buffer: a probe at 0.1 finds it still full, one at 0.6 finds
        # the first packet departed.
        result = walk(
            [0.0, 0.0, 0.1, 0.6], [RATE * 0.5, RATE * 0.5] + [PROBE_BITS] * 2,
            [False, False, True, True], 0.6, capacity=1)
        assert result.admitted == [False, True]
        assert result.stats["drops"] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            walk([0.0], [0.0], [False], 1.0)
        with pytest.raises(ConfigurationError):
            walk([0.0, 1.0], [PROBE_BITS], [True], 1.0)
        with pytest.raises(ConfigurationError):
            walk([0.0, 2.0], [PROBE_BITS] * 2, [True] * 2, 1.0)


class TestFluidQueueStats:
    def test_occupancy_integral_of_two_packets(self):
        # Second packet waits exactly one service time (1 s at RATE bits).
        stats = walk([0.0, 0.0], [RATE, RATE], [False, False], 10.0).stats
        assert stats["occupancy_mean_pkts"] == pytest.approx(0.1)
        assert stats["occupancy_max_pkts"] == 1.0
        assert stats["departures"] == 2.0
        assert stats["loss_fraction"] == 0.0

    def test_loss_fraction(self):
        # 1 in service, 1 waiting, 2 dropped.
        stats = walk([0.0] * 4, [PROBE_BITS] * 4, [False] * 4, 1.0,
                     capacity=1).stats
        assert stats["arrivals"] == 4.0
        assert stats["loss_fraction"] == pytest.approx(0.5)

    def test_elapsed_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            walk([0.0], [PROBE_BITS], [True], 0.0)


@pytest.fixture
def walks(monkeypatch):
    """Record every :func:`drop_tail_walk` a bottleneck pass makes."""
    made = []

    def counting(*args):
        made.append(args)
        return drop_tail_walk(*args)

    monkeypatch.setattr(qff, "drop_tail_walk", counting)
    return made


def cross_stream(rng, count=400, horizon=30.0):
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    return times, rng.choice([576.0, 4416.0], size=count)


class TestBottleneckPass:
    def test_certified_pass_skips_the_walk(self, rng, walks):
        cross_times, cross_bits = cross_stream(rng)
        probes = np.arange(0.05, 30.0, 0.05)
        window = (cross_times, cross_bits, probes, PROBE_BITS, 31.0, RATE)
        exits, admitted, stats = bottleneck_pass(*window, 10_000,
                                                 MODE_PACKETS)
        assert walks == []
        assert admitted.all() and admitted.size == probes.size
        # A one-packet buffer fails the certificate, so that pass walks
        # the merged stream; walked through the deep buffer, the stream
        # gives the certified pass's result up to the rounding of the
        # closed-form Lindley sums, and the same counts.
        bottleneck_pass(*window, 1, MODE_PACKETS)
        times, bits, flags, end_time = walks[0][:4]
        walked = drop_tail_walk(times, bits, flags, end_time, RATE, 10_000,
                                MODE_PACKETS)
        assert np.allclose(exits, walked.exits, rtol=0.0, atol=1e-12)
        assert walked.admitted == admitted.tolist()
        for key, value in walked.stats.items():
            assert stats[key] == pytest.approx(value, rel=1e-9), key

    @pytest.mark.parametrize("capacity,mode", [(3, MODE_PACKETS),
                                               (600, MODE_BYTES)])
    def test_overflowing_buffer_walks_the_merged_stream(
            self, rng, walks, capacity, mode):
        cross_times, cross_bits = cross_stream(rng)
        probes = np.arange(0.05, 30.0, 0.05)
        exits, admitted, stats = bottleneck_pass(
            cross_times, cross_bits, probes, PROBE_BITS, 31.0, RATE,
            capacity, mode)
        assert len(walks) == 1
        times, bits, flags, end_time, *queue = walks[0]
        assert queue == [RATE, capacity, mode]
        assert end_time == 31.0
        assert sum(flags) == probes.size
        assert sorted(times) == times
        expected = drop_tail_walk(times, bits, flags, end_time, *queue)
        assert np.array_equal(exits, expected.exits, equal_nan=True)
        assert admitted.tolist() == expected.admitted
        assert not admitted.all()
        assert stats == expected.stats

    @pytest.mark.parametrize("mode", [MODE_PACKETS, MODE_BYTES])
    def test_certificate_holds_exactly_up_to_the_full_maximum(
            self, rng, walks, mode):
        # The longest-wait arrival only refuses early: the pass walks
        # exactly when the in-system maximum over every arrival exceeds
        # the capacity, one unit below it and not at it.
        cross_times, cross_bits = cross_stream(rng, count=2000)
        probes = np.arange(0.05, 30.0, 0.05)
        window = (cross_times, cross_bits, probes, PROBE_BITS, 31.0, RATE)
        bottleneck_pass(*window, 0, mode)
        times, bits = (np.asarray(column) for column in walks.pop()[:2])
        departs = times + fifo_waits(times, bits, RATE) + bits / RATE
        population = np.arange(1, times.size + 1)
        in_system = population - np.searchsorted(departs, times, side="left")
        if mode == MODE_PACKETS:
            peak = int(in_system.max())
        else:
            cumulative = np.concatenate([[0.0], np.cumsum(bits)])
            peak = int(np.ceil((cumulative[population] - cumulative[
                population - in_system]).max() / 8))
        assert peak > 1
        bottleneck_pass(*window, peak - 1, mode)
        assert len(walks) == 1
        bottleneck_pass(*window, peak, mode)
        assert len(walks) == 1

    def test_probe_queues_behind_same_instant_cross_packets(self, walks):
        # Cross packets arriving with a probe are ahead of it; equal-time
        # probes keep their send order.
        exits, admitted, _ = bottleneck_pass(
            np.array([1.0, 1.0]), np.array([RATE, RATE]),
            np.array([1.0, 1.0]), PROBE_BITS, 10.0, RATE, 15, MODE_PACKETS)
        service = PROBE_BITS / RATE
        assert exits.tolist() == [3.0 + service, 3.0 + service + service]
        assert admitted.tolist() == [True, True]

    def test_cross_packets_after_the_window_never_arrive(self):
        _, _, stats = bottleneck_pass(
            np.array([1.0, 5.0, 12.0]), np.full(3, PROBE_BITS),
            np.array([2.0]), PROBE_BITS, 10.0, RATE, 15, MODE_PACKETS)
        assert stats["arrivals"] == 3.0

    def test_probes_after_the_window_never_arrive(self):
        exits, admitted, stats = bottleneck_pass(
            np.array([1.0]), np.full(1, PROBE_BITS), np.array([2.0, 12.0]),
            PROBE_BITS, 10.0, RATE, 15, MODE_PACKETS)
        assert stats["arrivals"] == 2.0
        assert admitted.tolist() == [True, False]
        assert exits[0] == 2.0 + PROBE_BITS / RATE and math.isnan(exits[1])

    def test_empty_window(self):
        exits, admitted, stats = bottleneck_pass(
            np.empty(0), np.empty(0), np.empty(0), PROBE_BITS, 10.0, RATE,
            15, MODE_PACKETS)
        assert exits.size == 0 and admitted.size == 0
        assert stats["arrivals"] == 0.0
