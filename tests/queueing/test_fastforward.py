"""Tests for the fast-forward queue primitives."""

import numpy as np
import pytest

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS
from repro.queueing.fastforward import FluidQueue, fifo_waits

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


class TestFluidQueueWaits:
    def test_single_packet_served_at_rate(self):
        queue = FluidQueue(RATE, 15)
        assert queue.offer(0.0, RATE) == 1  # one-second packet
        assert queue.workload_seconds == pytest.approx(1.0)
        queue.advance(0.25)
        assert queue.workload_seconds == pytest.approx(0.75)
        queue.advance(2.0)
        assert queue.workload_seconds == 0.0
        assert queue.departures == 1

    def test_workload_before_offer_is_the_lindley_wait(self, rng):
        # Per-packet offers against an uncapped-in-practice buffer must
        # reproduce the vectorized Lindley waits exactly.
        times = np.sort(rng.uniform(0.0, 30.0, size=300))
        bits = rng.choice([576.0, 4416.0], size=300)
        expected = fifo_waits(times, bits, RATE)
        queue = FluidQueue(RATE, 10_000)
        got = []
        for at, size in zip(times, bits):
            queue.advance(at)
            got.append(queue.workload_seconds)
            assert queue.offer(at, size) == 1
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        assert queue.drops == 0
        assert queue.arrivals == 300


class TestFluidQueueDrops:
    def test_packet_capacity_excludes_in_service_packet(self):
        # Idle server: one packet goes into service, K wait, rest drop.
        queue = FluidQueue(RATE, 15, mode=MODE_PACKETS)
        accepted = [queue.offer(0.0, PROBE_BITS) for _ in range(20)]
        assert accepted == [1] * 16 + [0] * 4
        assert queue.drops == 4
        # Backlog: the packet in service plus the 15 buffered ones.
        assert queue.workload_seconds == pytest.approx(16 * PROBE_BITS / RATE)

    def test_busy_server_admits_only_capacity(self):
        queue = FluidQueue(RATE, 2, mode=MODE_PACKETS)
        queue.offer(0.0, RATE)  # one-second packet holds the server
        accepted = [queue.offer(0.0, PROBE_BITS) for _ in range(5)]
        assert accepted == [1, 1, 0, 0, 0]
        assert queue.drops == 3

    def test_byte_capacity(self):
        queue = FluidQueue(RATE, 1000, mode=MODE_BYTES)
        queue.offer(0.0, 800.0)  # 100 B, in service: holds no buffer bytes
        # 400-byte packets: two fit in 1000 free bytes, the third drops.
        accepted = [queue.offer(0.0, 3200.0) for _ in range(3)]
        assert accepted == [1, 1, 0]
        assert queue.drops == 1
        assert queue.workload_seconds == pytest.approx(
            (800.0 + 2 * 3200.0) / RATE)

    def test_oversized_packet_drops_even_when_idle(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        assert queue.offer(0.0, 8 * 101.0) == 0
        assert queue.drops == 1
        assert queue.workload_seconds == 0.0

    def test_packet_exactly_filling_idle_server_is_accepted(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        assert queue.offer(0.0, 8 * 100.0) == 1

    def test_server_draining_frees_buffer_slots(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        queue.offer(0.0, RATE * 0.5)        # serves until t=0.5
        queue.offer(0.0, RATE * 0.5)        # waits, buffer now full
        assert queue.offer(0.1, PROBE_BITS) == 0   # still full
        assert queue.offer(0.6, PROBE_BITS) == 1   # first packet departed
        assert queue.drops == 1

    def test_validation(self):
        queue = FluidQueue(RATE, 15)
        with pytest.raises(ConfigurationError):
            queue.offer(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            FluidQueue(0.0, 15)
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 0)
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 15, mode="cells")


class TestFluidQueueStats:
    def test_occupancy_integral_of_two_packets(self):
        # Second packet waits exactly one service time (1 s at RATE bits).
        queue = FluidQueue(RATE, 15)
        queue.offer(0.0, RATE)
        queue.offer(0.0, RATE)
        queue.advance(10.0)
        stats = queue.stats(10.0)
        assert stats["occupancy_mean_pkts"] == pytest.approx(0.1)
        assert stats["occupancy_max_pkts"] == 1.0
        assert stats["departures"] == 2.0
        assert stats["loss_fraction"] == 0.0

    def test_loss_fraction(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        for _ in range(4):  # 1 in service, 1 waiting, 2 dropped
            queue.offer(0.0, PROBE_BITS)
        stats = queue.stats(1.0)
        assert stats["arrivals"] == 4.0
        assert stats["loss_fraction"] == pytest.approx(0.5)

    def test_elapsed_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 15).stats(0.0)
