"""A minimal window-based reliable transport ("mini-TCP").

The paper's cross traffic was mostly TCP bulk transfer, whose congestion
control *reacts* to the probes: when probe traffic claims bottleneck
bandwidth, TCP backs off.  The open-loop sources in :mod:`repro.traffic`
cannot do that, so this module provides a small Tahoe-style transport —
slow start, congestion avoidance, timeout + fast-retransmit loss recovery —
good enough to study:

* responsive vs non-responsive cross traffic (the δ = 8 ms ablation);
* the two-way-traffic dynamics of Zhang et al. [28, 29]: data and ACK
  packets interacting in shared queues, producing ACK compression — the
  phenomenon probe compression is named after.

This is intentionally *not* a full TCP: no sequence wraparound, no SACK,
no delayed ACKs, no Nagle; segments are fixed-size and flow is one-way
with pure ACKs returning.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.net.packet import Packet

#: Conventional initial retransmission timeout, seconds.
INITIAL_RTO = 1.0

#: Default initial slow-start threshold, segments.
DEFAULT_SSTHRESH = 32.0

#: Default congestion-window cap (receiver window), segments.
DEFAULT_MAX_WINDOW = 64.0


class TransferStats:
    """Counters exposed by a :class:`MiniTcpSender`."""

    __slots__ = ("segments_sent", "retransmissions", "timeouts",
                 "fast_retransmits", "acks_received")

    def __init__(self, segments_sent: int = 0, retransmissions: int = 0,
                 timeouts: int = 0, fast_retransmits: int = 0,
                 acks_received: int = 0) -> None:
        self.segments_sent = segments_sent
        self.retransmissions = retransmissions
        self.timeouts = timeouts
        self.fast_retransmits = fast_retransmits
        self.acks_received = acks_received

    def __repr__(self) -> str:
        return (f"TransferStats(segments_sent={self.segments_sent!r}, "
                f"retransmissions={self.retransmissions!r}, "
                f"timeouts={self.timeouts!r}, "
                f"fast_retransmits={self.fast_retransmits!r}, "
                f"acks_received={self.acks_received!r})")


class MiniTcpReceiver:
    """Receives segments on a UDP port, returns cumulative ACKs."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.next_expected = 0
        self.segments_received = 0
        self.out_of_order = 0
        self.duplicates = 0
        self._buffered: set[int] = set()
        host.bind_udp(port, self._on_segment)

    def _on_segment(self, packet: Packet) -> None:
        seq = packet.payload
        self.segments_received += 1
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self._buffered:
                self._buffered.remove(self.next_expected)
                self.next_expected += 1
        elif seq > self.next_expected:
            self.out_of_order += 1
            self._buffered.add(seq)
        else:
            # A retransmission of something already delivered in order:
            # without this counter it is indistinguishable from a first
            # delivery in ``segments_received``.
            self.duplicates += 1
        # Cumulative ACK for everything in order so far (dupACK when the
        # segment was out of order or a duplicate).
        self.host.send_udp(packet.src, src_port=self.port,
                           dst_port=packet.src_port,
                           payload=("ack", self.next_expected),
                           payload_bytes=0)

    def close(self) -> None:
        """Release the UDP port."""
        self.host.unbind_udp(self.port)


class MiniTcpSender:
    """Tahoe-style sender: slow start, congestion avoidance, Tahoe recovery.

    Parameters
    ----------
    host:
        Sending host.
    destination:
        Receiver host name.
    port:
        Receiver port (sender binds the same port number locally for ACKs).
    total_segments:
        Transfer length; the sender stops once all are ACKed.
    segment_bytes:
        Payload size of each data segment (512 default).
    initial_ssthresh:
        Initial slow-start threshold, in segments.
    max_window:
        Hard cap on the congestion window (receiver window), segments.

    The retransmission timer is never cancelled in the kernel, which
    returns no handle.  Re-arming it, completing the transfer or closing
    the sender bumps ``_timer_token`` instead; each armed timer carries
    the token it was armed with, and one whose token is stale fires as a
    no-op.
    """

    def __init__(self, host: Host, destination: str, port: int,
                 total_segments: int, segment_bytes: int = 512,
                 initial_ssthresh: float = DEFAULT_SSTHRESH,
                 max_window: float = DEFAULT_MAX_WINDOW) -> None:
        if total_segments < 1:
            raise ConfigurationError(
                f"need at least one segment, got {total_segments}")
        if segment_bytes < 1:
            raise ConfigurationError(
                f"segment size must be positive, got {segment_bytes}")
        self.host = host
        self.destination = destination
        self.port = port
        self.total_segments = total_segments
        self.segment_bytes = segment_bytes
        self.cwnd = 1.0
        self.ssthresh = initial_ssthresh
        self.max_window = max_window
        self.stats = TransferStats()
        self.finished = False
        self.finish_time: Optional[float] = None
        self._next_to_send = 0
        self._highest_acked = 0  # next expected by receiver
        self._duplicate_acks = 0
        self._rto = INITIAL_RTO
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._timer_token = 0
        self._send_times: dict[int, float] = {}
        self._resent: set[int] = set()
        # RTT is measured on one "timed" segment at a time (the classic
        # pre-timestamp TCP approach): cumulative ACKs for other segments
        # can be delayed by unrelated recoveries and must not be sampled.
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        host.bind_udp(port, self._on_ack)

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin the transfer."""
        start_time = self.host.sim.now if at is None else at
        self.host.sim.call_at(start_time, self._fill_window,
                              label="minitcp-start")

    # ------------------------------------------------------------------
    def _in_flight(self) -> int:
        return self._next_to_send - self._highest_acked

    def _fill_window(self) -> None:
        if self.finished:
            return
        window = min(self.cwnd, self.max_window)
        while (self._in_flight() < int(window)
               and self._next_to_send < self.total_segments):
            self._transmit(self._next_to_send)
            self._next_to_send += 1
        self._arm_timer()

    def _transmit(self, seq: int) -> None:
        self.stats.segments_sent += 1
        if seq not in self._send_times:
            self._send_times[seq] = self.host.sim.now
            if self._timed_seq is None:
                self._timed_seq = seq
                self._timed_at = self.host.sim.now
        else:
            # Karn's algorithm: a segment sent more than once yields no
            # RTT sample (the ACK's trigger is ambiguous) — without this
            # the smoothed RTT absorbs timeout gaps and the RTO diverges.
            # Every re-send counts: recovery rewinds ``_next_to_send``, so
            # segments re-sent afterwards by ``_fill_window`` come through
            # here too, and counting only the first would let them inflate
            # the goodput (segments sent minus retransmissions).
            self.stats.retransmissions += 1
            self._resent.add(seq)
            if self._timed_seq == seq:
                self._timed_seq = None
        self.host.send_udp(self.destination, src_port=self.port,
                           dst_port=self.port, payload=seq,
                           payload_bytes=self.segment_bytes)

    def _arm_timer(self) -> None:
        self._timer_token += 1
        if self._in_flight() > 0:
            token = self._timer_token
            self.host.sim.schedule(self._rto,
                                   lambda: self._on_timeout(token),
                                   label="minitcp-rto")

    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        kind, acked = packet.payload
        if kind != "ack" or self.finished:
            return
        self.stats.acks_received += 1
        if acked > self._highest_acked:
            newly = acked - self._highest_acked
            if self._timed_seq is not None and acked > self._timed_seq:
                self._take_rtt_sample()
            # Segments below the cumulative ACK are delivered and can
            # never be retransmitted again; dropping their bookkeeping
            # keeps memory bounded on long transfers.
            for seq in range(self._highest_acked, acked):
                self._send_times.pop(seq, None)
                self._resent.discard(seq)
            self._highest_acked = acked
            # After a recovery rewound ``_next_to_send``, a cumulative
            # ACK can jump past it (the retransmitted hole released a
            # buffered run at the receiver).  Re-sending those delivered
            # segments would re-insert pruned ``_send_times`` entries
            # below the ACK point — where no later prune reaches them —
            # and misclassify the sends as first transmissions.
            if self._next_to_send < acked:
                self._next_to_send = acked
            self._duplicate_acks = 0
            # RFC 6298: new data acknowledged -> leave exponential
            # backoff, restarting the RTO from the smoothed estimators.
            # Without this, Karn's rule can pin a heavily-backed-off RTO
            # forever once every outstanding segment has been resent.
            if self._srtt is not None:
                self._rto = min(60.0, max(0.2,
                                          self._srtt + 4.0 * self._rttvar))
            else:
                self._rto = INITIAL_RTO
            if self.cwnd < self.ssthresh:
                self.cwnd += newly  # slow start
            else:
                self.cwnd += newly / self.cwnd  # congestion avoidance
            if self._highest_acked >= self.total_segments:
                self._complete()
                return
            self._fill_window()
        else:
            self._duplicate_acks += 1
            if self._duplicate_acks == 3:
                self._fast_retransmit()

    def _take_rtt_sample(self) -> None:
        assert self._timed_seq is not None
        sample = self.host.sim.now - self._timed_at
        self._timed_seq = None
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            # Jacobson/Karels estimators [12].
            self._rttvar = 0.75 * self._rttvar \
                + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(60.0, max(0.2, self._srtt + 4.0 * self._rttvar))

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self._enter_recovery()

    def _on_timeout(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a re-arm, completion or close
        if self.finished or self._in_flight() == 0:
            return
        self.stats.timeouts += 1
        self._rto = min(self._rto * 2.0, 60.0)  # exponential backoff
        self._enter_recovery()

    def _enter_recovery(self) -> None:
        # Tahoe: halve ssthresh, collapse window, resend from the hole.
        # ``_transmit`` counts the retransmission (as it does for every
        # segment re-sent by ``_fill_window`` after the rewind).
        self.ssthresh = max(2.0, min(self.cwnd, self.max_window) / 2.0)
        self.cwnd = 1.0
        self._duplicate_acks = 0
        self._next_to_send = self._highest_acked + 1
        self._transmit(self._highest_acked)
        self._arm_timer()

    def _complete(self) -> None:
        self.finished = True
        self.finish_time = self.host.sim.now
        self._timer_token += 1

    def close(self) -> None:
        """Release the UDP port and disarm the retransmission timer."""
        self._timer_token += 1
        self.host.unbind_udp(self.port)


def start_transfer(sender_host: Host, receiver_host: Host, port: int,
                   total_segments: int, segment_bytes: int = 512,
                   at: float = 0.0,
                   initial_ssthresh: float = DEFAULT_SSTHRESH,
                   max_window: float = DEFAULT_MAX_WINDOW,
                   ) -> tuple[MiniTcpSender, MiniTcpReceiver]:
    """Wire a sender/receiver pair and start the transfer at time ``at``."""
    receiver = MiniTcpReceiver(receiver_host, port=port)
    sender = MiniTcpSender(sender_host, receiver_host.name, port=port,
                           total_segments=total_segments,
                           segment_bytes=segment_bytes,
                           initial_ssthresh=initial_ssthresh,
                           max_window=max_window)
    sender.start(at=at)
    return sender, receiver
