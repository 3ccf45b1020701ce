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


def wait_behind(queue, times, sizes, at):
    """The Lindley wait a probe arriving at ``at`` finds behind a stream."""
    waits, _ = queue.walk([*times, at], [*sizes, PROBE_BITS],
                          [False] * len(times) + [True], at)
    return waits[0]


class TestFluidQueueWaits:
    def test_single_packet_served_at_rate(self):
        # One one-second packet; probes read the work left behind it.
        for at, left in ((0.0, 1.0), (0.25, 0.75), (2.0, 0.0)):
            queue = FluidQueue(RATE, 15)
            assert wait_behind(queue, [0.0], [RATE], at) == pytest.approx(
                left)
        assert queue.departures == 1

    def test_workload_before_offer_is_the_lindley_wait(self, rng):
        # A walk against an uncapped-in-practice buffer must reproduce
        # the vectorized Lindley waits exactly.
        times = np.sort(rng.uniform(0.0, 30.0, size=300))
        bits = rng.choice([576.0, 4416.0], size=300)
        expected = fifo_waits(times, bits, RATE)
        queue = FluidQueue(RATE, 10_000)
        got, admitted = queue.walk(times.tolist(), bits.tolist(),
                                   [True] * 300, float(times[-1]))
        assert admitted == [True] * 300
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        assert queue.drops == 0
        assert queue.arrivals == 300


class TestFluidQueueDrops:
    def test_packet_capacity_excludes_in_service_packet(self):
        # Idle server: one packet goes into service, K wait, rest drop.
        queue = FluidQueue(RATE, 15, mode=MODE_PACKETS)
        _, accepted = queue.walk([0.0] * 20, [PROBE_BITS] * 20,
                                 [True] * 20, 0.0)
        assert accepted == [True] * 16 + [False] * 4
        assert queue.drops == 4
        # Backlog: the packet in service plus the 15 buffered ones.
        assert wait_behind(queue, [], [], 0.0) == pytest.approx(
            16 * PROBE_BITS / RATE)

    def test_busy_server_admits_only_capacity(self):
        queue = FluidQueue(RATE, 2, mode=MODE_PACKETS)
        # A one-second packet holds the server.
        _, accepted = queue.walk([0.0] * 6, [RATE] + [PROBE_BITS] * 5,
                                 [False] + [True] * 5, 0.0)
        assert accepted == [True, True, False, False, False]
        assert queue.drops == 3

    def test_byte_capacity(self):
        queue = FluidQueue(RATE, 1000, mode=MODE_BYTES)
        # 100 B in service holds no buffer bytes; of three 400-byte
        # packets two fit in 1000 free bytes, the third drops.
        _, accepted = queue.walk([0.0] * 4, [800.0] + [3200.0] * 3,
                                 [False] + [True] * 3, 0.0)
        assert accepted == [True, True, False]
        assert queue.drops == 1
        assert wait_behind(queue, [], [], 0.0) == pytest.approx(
            (800.0 + 2 * 3200.0) / RATE)

    def test_oversized_packet_drops_even_when_idle(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        _, accepted = queue.walk([0.0], [8 * 101.0], [True], 0.0)
        assert accepted == [False]
        assert queue.drops == 1
        assert wait_behind(queue, [], [], 0.0) == 0.0

    def test_packet_exactly_filling_idle_server_is_accepted(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        assert queue.walk([0.0], [8 * 100.0], [True], 0.0)[1] == [True]

    def test_server_draining_frees_buffer_slots(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        # The first packet serves until t=0.5 and the second fills the
        # buffer: a probe at 0.1 finds it still full, one at 0.6 finds
        # the first packet departed.
        _, accepted = queue.walk(
            [0.0, 0.0, 0.1, 0.6], [RATE * 0.5, RATE * 0.5] + [PROBE_BITS] * 2,
            [False, False, True, True], 0.6)
        assert accepted == [False, True]
        assert queue.drops == 1

    def test_validation(self):
        queue = FluidQueue(RATE, 15)
        with pytest.raises(ConfigurationError):
            queue.walk([0.0], [0.0], [False], 0.0)
        with pytest.raises(ConfigurationError):
            queue.walk([0.0, 1.0], [PROBE_BITS], [True], 1.0)
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
        queue.walk([0.0, 0.0], [RATE, RATE], [False, False], 10.0)
        stats = queue.stats(10.0)
        assert stats["occupancy_mean_pkts"] == pytest.approx(0.1)
        assert stats["occupancy_max_pkts"] == 1.0
        assert stats["departures"] == 2.0
        assert stats["loss_fraction"] == 0.0

    def test_loss_fraction(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        # 1 in service, 1 waiting, 2 dropped.
        queue.walk([0.0] * 4, [PROBE_BITS] * 4, [False] * 4, 0.0)
        stats = queue.stats(1.0)
        assert stats["arrivals"] == 4.0
        assert stats["loss_fraction"] == pytest.approx(0.5)

    def test_elapsed_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 15).stats(0.0)
