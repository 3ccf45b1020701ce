"""Tests for the mini-TCP transport."""

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import RandomDropFault
from repro.net.routing import Network
from repro.net.transport import (
    MiniTcpSender,
    start_transfer,
)
from repro.sim.kernel import Simulator
from repro.units import kbps, mbps, ms


def two_hosts(sim, rate_bps=mbps(1), prop_delay=ms(10), capacity=32):
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    network.link("a", "b", rate_bps=rate_bps, prop_delay=prop_delay,
                 queue_capacity=capacity)
    network.compute_routes()
    return network


class TestReliableDelivery:
    def test_lossless_transfer_completes(self, sim):
        network = two_hosts(sim)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=50)
        sim.run(until=60.0)
        assert sender.finished
        assert receiver.next_expected == 50
        assert sender.stats.retransmissions == 0

    def test_transfer_completes_despite_random_loss(self, sim):
        network = two_hosts(sim)
        fault = RandomDropFault(0.05, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=80)
        sim.run(until=300.0)
        assert sender.finished
        assert receiver.next_expected == 80
        assert sender.stats.retransmissions > 0

    def test_transfer_completes_despite_heavy_loss(self, sim):
        network = two_hosts(sim)
        fault = RandomDropFault(0.2, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=30)
        sim.run(until=600.0)
        assert sender.finished

    def test_finish_time_recorded(self, sim):
        network = two_hosts(sim)
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=10)
        sim.run(until=30.0)
        assert sender.finish_time is not None
        assert 0 < sender.finish_time <= 30.0


class TestCongestionControl:
    def test_slow_start_doubles_window(self, sim):
        network = two_hosts(sim, rate_bps=mbps(10))
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=40)
        sim.run(until=2.0)
        # With ~20 ms RTT and no loss, several RTTs of slow start have
        # multiplied cwnd well beyond its initial value.
        assert sender.finished or sender.cwnd >= 8.0

    def test_loss_halves_ssthresh_and_collapses_window(self, sim):
        network = two_hosts(sim, rate_bps=kbps(256), capacity=4)
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=300)
        sim.run(until=20.0)
        assert sender.stats.retransmissions > 0
        # ssthresh fell below the configured initial value of 32.
        assert sender.ssthresh < 32.0

    def test_throughput_bounded_by_bottleneck(self, sim):
        rate = kbps(256)
        network = two_hosts(sim, rate_bps=rate, capacity=16)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=200)
        sim.run(until=120.0)
        assert sender.finished
        elapsed = sender.finish_time
        goodput_bps = 200 * 512 * 8 / elapsed
        assert goodput_bps <= rate

    def test_backs_off_under_competing_load(self, sim):
        """The responsive behavior the open-loop sources lack."""
        from repro.traffic.base import TrafficSink
        from tests.traffic.periodic_source import PeriodicSource
        network = two_hosts(sim, rate_bps=kbps(256), capacity=8)
        # Competing CBR claiming ~80% of the link from t=30.
        sink = TrafficSink(network.host("b"), port=9000)
        cbr = PeriodicSource(network.host("a"), "b", interval=0.022,
                             payload_bytes=512, port=9000)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=100_000)
        sim.run(until=30.0)
        delivered_before = receiver.next_expected
        cbr.start()
        sim.run(until=60.0)
        delivered_during = receiver.next_expected - delivered_before
        # TCP yields bandwidth to the aggressive flow.
        assert delivered_during < 0.7 * delivered_before
        sender.close()

    def test_rto_estimator_tracks_rtt(self, sim):
        network = two_hosts(sim, prop_delay=ms(100))
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=50)
        sim.run(until=30.0)
        assert sender._srtt is not None
        assert sender._srtt >= 0.2  # at least the physical RTT


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), drop=st.floats(0.0, 0.3),
       segments=st.integers(1, 40))
def test_reliability_property(seed, drop, segments):
    """Whatever the (sub-saturation) loss rate, every byte arrives in
    order, exactly once, within a bounded time."""
    sim = Simulator(seed=seed)
    network = two_hosts(sim, rate_bps=mbps(1))
    if drop > 0:
        network.interface("a", "b").add_egress_fault(
            RandomDropFault(drop, sim.streams.get("loss")))
        network.interface("b", "a").add_egress_fault(
            RandomDropFault(drop, sim.streams.get("loss-acks")))
    sender, receiver = start_transfer(network.host("a"), network.host("b"),
                                      port=5000, total_segments=segments)
    # Generous horizon: at 30% loss each way the last segment alone can
    # need several retries at RTO-backoff spacing (up to 60 s apart).
    sim.run(until=3000.0)
    assert sender.finished
    assert receiver.next_expected == segments


class TestAccounting:
    """Regression tests for the retransmission/accounting bug cluster."""

    def test_goodput_equals_total_after_lossy_transfer(self, sim):
        # Every re-sent segment must count as a retransmission, so
        # distinct-segments-delivered comes out exactly right even when
        # recovery re-sends a run of segments.
        network = two_hosts(sim)
        fault = RandomDropFault(0.1, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=200)
        sim.run(until=600.0)
        assert sender.finished
        assert sender.stats.retransmissions > 0
        stats = sender.stats
        assert stats.segments_sent - stats.retransmissions == 200
        assert receiver.next_expected == 200

    def test_send_times_pruned_on_cumulative_ack(self, sim):
        # Acked state must not accumulate across a long transfer: after
        # completion the in-flight bookkeeping is empty, not O(total).
        network = two_hosts(sim, rate_bps=mbps(10))
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=3000)
        sim.run(until=120.0)
        assert sender.finished
        assert len(sender._send_times) == 0
        assert len(sender._resent) == 0

    def test_bookkeeping_stays_bounded_under_loss(self, sim):
        network = two_hosts(sim, rate_bps=mbps(10))
        fault = RandomDropFault(0.02, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=2000)
        sim.run(until=600.0)
        assert sender.finished
        assert len(sender._send_times) == 0
        assert len(sender._resent) == 0

    def test_start_transfer_forwards_window_tuning(self, sim):
        network = two_hosts(sim, rate_bps=mbps(10))
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=400,
                                   initial_ssthresh=4.0, max_window=8.0)
        assert sender.ssthresh == 4.0
        assert sender.max_window == 8.0
        sim.run(until=60.0)
        assert sender.finished
        # The cap actually binds: cwnd may grow past it internally but
        # the effective window never exceeds max_window.
        assert min(sender.cwnd, sender.max_window) <= 8.0

    def test_receiver_counts_duplicate_segments(self, sim):
        network = two_hosts(sim)
        # Dropping ACKs (reverse path) forces the sender to re-send
        # segments the receiver already has.
        fault = RandomDropFault(0.15, sim.streams.get("loss"))
        network.interface("b", "a").add_egress_fault(fault)
        sender, receiver = start_transfer(network.host("a"),
                                          network.host("b"), port=5000,
                                          total_segments=150)
        sim.run(until=600.0)
        assert sender.finished
        assert receiver.duplicates > 0

    def test_lossless_transfer_sees_no_duplicates(self, sim):
        network = two_hosts(sim)
        _, receiver = start_transfer(network.host("a"), network.host("b"),
                                     port=5000, total_segments=100)
        sim.run(until=60.0)
        assert receiver.duplicates == 0

    def test_rto_recovers_after_backoff(self, sim):
        # RFC 6298: once a fresh ACK produces a valid RTT sample, the
        # RTO is recomputed from srtt/rttvar — exponential timeout
        # backoff must not stick for the rest of the transfer.
        network = two_hosts(sim)
        fault = RandomDropFault(0.1, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=300)
        sim.run(until=900.0)
        assert sender.finished
        assert sender.stats.timeouts > 0
        # ~20 ms RTT: the recomputed RTO sits at the 200 ms floor, far
        # below even one doubling of the initial 1 s timeout.
        assert sender._rto < 1.0

    def test_rtt_estimator_survives_retransmissions(self, sim):
        # Karn's rule: retransmitted segments must not feed ambiguous
        # RTT samples, so the smoothed RTT stays near the true ~20 ms
        # two-way latency even under heavy loss.
        network = two_hosts(sim)
        fault = RandomDropFault(0.15, sim.streams.get("loss"))
        network.interface("a", "b").add_egress_fault(fault)
        sender, _ = start_transfer(network.host("a"), network.host("b"),
                                   port=5000, total_segments=200)
        sim.run(until=900.0)
        assert sender.finished
        assert sender._srtt is not None
        assert sender._srtt < 0.5


class TestValidation:
    def test_sender_validation(self, sim):
        network = two_hosts(sim)
        with pytest.raises(ConfigurationError):
            MiniTcpSender(network.host("a"), "b", port=1,
                          total_segments=0)
        with pytest.raises(ConfigurationError):
            MiniTcpSender(network.host("a"), "b", port=1,
                          total_segments=1, segment_bytes=0)

    def test_close_releases_port(self, sim):
        network = two_hosts(sim)
        sender = MiniTcpSender(network.host("a"), "b", port=7777,
                               total_segments=5)
        sender.close()
        MiniTcpSender(network.host("a"), "b", port=7777, total_segments=5)


class TestRetransmissionTimer:
    """A superseded retransmission timer still fires, as a no-op.

    The kernel cancels nothing: re-arming, completing and closing bump the
    sender's timer token, and a timer armed under an older token must
    neither count a timeout nor resend.  No receiver is bound, so no ACK
    ever returns and only the timers move the sender.
    """

    def unacked_sender(self, sim):
        network = two_hosts(sim)
        sender = MiniTcpSender(network.host("a"), "b", port=5000,
                               total_segments=10)
        sender.start()
        # Segment 0 leaves at t=0 and arms the timer for t=1.0.
        sim.run(until=0.5)
        assert sender.stats.segments_sent == 1
        return sender

    def assert_untouched(self, sender):
        assert sender.stats.timeouts == 0
        assert sender.stats.retransmissions == 0
        assert sender.stats.segments_sent == 1

    def test_noop_after_rearm(self, sim):
        sender = self.unacked_sender(sim)
        sender._arm_timer()  # the new timer fires at t=1.5
        assert sim.pending_events() == 2
        sim.run(until=1.2)  # the superseded t=1.0 timer has fired
        assert sim.pending_events() == 1
        self.assert_untouched(sender)
        sim.run(until=1.6)  # the current one still acts
        assert sender.stats.timeouts == 1
        assert sender.stats.retransmissions == 1

    def test_noop_after_complete(self, sim):
        sender = self.unacked_sender(sim)
        sender._complete()
        sim.run(until=2.0)
        assert sim.pending_events() == 0
        self.assert_untouched(sender)

    def test_noop_after_close(self, sim):
        sender = self.unacked_sender(sim)
        sender.close()
        sim.run(until=2.0)
        assert sim.pending_events() == 0
        self.assert_untouched(sender)
