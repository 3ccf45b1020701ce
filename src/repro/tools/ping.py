"""ping over the simulated network: ICMP echo with RTT statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net import icmp
from repro.net.packet import KIND_ICMP_ECHO_REPLY, Packet
from repro.net.routing import Network
from repro.units import seconds_to_ms

#: How long ping waits for replies after its last echo, seconds.
REPLY_TIMEOUT = 3.0


@dataclass
class PingResult:
    """Outcome of one ping run."""

    #: Round-trip times in seconds, one per *answered* echo, by sequence.
    rtts: dict[int, float]
    sent: int
    #: Nodes recorded by the record-route option (None unless requested).
    route: Optional[list] = None

    @property
    def received(self) -> int:
        """Number of echo replies received."""
        return len(self.rtts)

    @property
    def loss_fraction(self) -> float:
        """Fraction of echoes unanswered."""
        if self.sent == 0:
            return 0.0
        return 1.0 - self.received / self.sent

    def summary(self) -> str:
        """Classic ping summary line."""
        if not self.rtts:
            return (f"{self.sent} packets transmitted, 0 received, "
                    f"100.0% packet loss")
        values = np.array(sorted(self.rtts.values()))
        return (f"{self.sent} packets transmitted, {self.received} received, "
                f"{self.loss_fraction * 100:.1f}% packet loss\n"
                f"rtt min/avg/max = {seconds_to_ms(values.min()):.1f}/"
                f"{seconds_to_ms(values.mean()):.1f}/"
                f"{seconds_to_ms(values.max()):.1f} ms")


def ping(network: Network, source: str, destination: str, count: int = 4,
         interval: float = 1.0, ident: int = 1,
         record_route: bool = False) -> PingResult:
    """Send ``count`` ICMP echoes and collect replies.

    Advances the shared simulator clock by ``count * interval +
    REPLY_TIMEOUT``.
    With ``record_route``, the first answered echo's recorded node list is
    returned in :attr:`PingResult.route` — ping's IP record-route option,
    the paper's first way of obtaining the Table 1 route.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if interval <= 0:
        raise ConfigurationError(f"interval must be positive, got {interval}")
    src_host = network.host(source)
    network.node(destination)

    send_times: dict[int, float] = {}
    rtts: dict[int, float] = {}
    recorded: dict[str, Optional[list]] = {"route": None}

    def on_icmp(packet: Packet) -> None:
        if packet.kind != KIND_ICMP_ECHO_REPLY:
            return
        context = packet.payload
        if not isinstance(context, icmp.EchoContext) or context.ident != ident:
            return
        if context.seq in send_times and context.seq not in rtts:
            rtts[context.seq] = src_host.sim.now - send_times[context.seq]
            if recorded["route"] is None and packet.record is not None:
                recorded["route"] = list(packet.record)

    src_host.add_icmp_listener(on_icmp)

    def send_echo(seq: int) -> None:
        send_times[seq] = src_host.sim.now
        echo = icmp.make_echo(src_host.name, destination, ident=ident,
                              seq=seq, created_at=src_host.sim.now,
                              record_route=record_route)
        src_host.originate(echo)

    start = src_host.sim.now
    for seq in range(count):
        src_host.sim.call_at(start + seq * interval,
                             lambda s=seq: send_echo(s), label="ping")
    src_host.sim.run(until=start + count * interval + REPLY_TIMEOUT)
    src_host.icmp_listeners.remove(on_icmp)
    return PingResult(rtts=rtts, sent=count, route=recorded["route"])
