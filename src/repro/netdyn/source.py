"""The NetDyn source agent: periodic probe sender and receiver.

The source host sends fixed-size UDP probes every ``delta`` seconds toward
the echo host and receives them back (the destination host is the source
host).  Send and receive timestamps are taken with the *host clock*, so a
quantized clock yields exactly the measurement granularity artifacts of the
paper's DECstation source.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.net.host import Host
from repro.net.packet import Packet, UDP_WIRE_OVERHEAD_BYTES
from repro.netdyn import packetfmt
from repro.netdyn.trace import LOST, ProbeTrace
from repro.sim.kernel import Simulator

#: Default UDP port the source agent receives returned probes on.
SINK_PORT = 5202

#: Kernel label of the first probe's send event.
FIRST_PROBE_LABEL = "netdyn-first-probe"


class FirstProbeSlot:
    """The first probe's send event, scheduled before its agent exists.

    :meth:`SourceAgent.start` schedules the first send when it is called.
    A slot schedules that event earlier, at the same time and label, so
    it takes the ``(time, priority, sequence)`` heap key the agent's own
    ``call_at`` would have taken at that point; the agent built later
    binds its send into the slot (``start(slot=...)``) instead of
    scheduling a new event.  A warm-up snapshot (see
    :mod:`repro.experiments.runner`) reserves one right after the cross
    traffic starts, so a run probed from the snapshot executes exactly
    the events, in exactly the order, of a run built from scratch.
    """

    __slots__ = ("time", "_action")

    def __init__(self, sim: Simulator, time: float) -> None:
        sim.call_at(time, self, label=FIRST_PROBE_LABEL)
        self.time = time
        self._action: Optional[Callable[[], None]] = None

    def bind(self, action: Callable[[], None]) -> None:
        """Make ``action`` the reserved event's callback (once)."""
        if self._action is not None:
            raise SimulationError("the first-probe slot is already bound")
        self._action = action

    def __call__(self) -> None:
        if self._action is None:
            raise SimulationError(
                f"the first-probe slot at t={self.time!r} fired unbound")
        self._action()


class SourceAgent:
    """Sends probes at a fixed interval and records their round trips.

    Parameters
    ----------
    host:
        Source (= destination) host.
    echo_host:
        Node name of the echo agent's host.
    echo_port:
        UDP port of the echo agent.
    delta:
        Probe send interval, seconds.
    count:
        Total number of probes to send.
    payload_bytes:
        UDP payload size of each probe (32 in the paper).
    port:
        Local port the returned probes arrive on.
    """

    def __init__(self, host: Host, echo_host: str, echo_port: int,
                 delta: float, count: int,
                 payload_bytes: int = packetfmt.PROBE_PAYLOAD_BYTES,
                 port: int = SINK_PORT) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        self.host = host
        self.echo_host = echo_host
        self.echo_port = echo_port
        self.delta = delta
        self.count = count
        self.payload_bytes = payload_bytes
        self.port = port
        self.sent = 0
        self.duplicates = 0
        self.reordered = 0
        self._highest_seq_seen = -1
        self._send_clock_times: list[float] = []
        self._send_sim_times: list[float] = []
        self._rtts: dict[int, float] = {}
        host.bind_udp(port, self._on_return)

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None,
              slot: Optional[FirstProbeSlot] = None) -> None:
        """Schedule the probe train; first probe at ``at`` (default: now).

        With a ``slot`` reserved at that time, the first send binds into
        it instead of scheduling a new event.
        """
        start_time = self.host.sim.now if at is None else at
        if slot is None:
            self.host.sim.call_at(start_time, self._send_next,
                                  label=FIRST_PROBE_LABEL)
            return
        if slot.time != start_time:
            raise ConfigurationError(
                f"first-probe slot is reserved at t={slot.time!r}, "
                f"not at the requested t={start_time!r}")
        slot.bind(self._send_next)

    def _send_next(self) -> None:
        seq = self.sent
        clock_now = self.host.clock.now()
        payload = packetfmt.encode_probe(seq, source_time=clock_now,
                                         payload_bytes=self.payload_bytes)
        self._send_clock_times.append(clock_now)
        self._send_sim_times.append(self.host.sim.now)
        self.host.send_udp(self.echo_host, src_port=self.port,
                           dst_port=self.echo_port, payload=payload,
                           payload_bytes=len(payload))
        self.sent += 1
        if self.sent < self.count:
            self.host.sim.schedule(self.delta, self._send_next,
                                   label="netdyn-probe")

    def _on_return(self, packet: Packet) -> None:
        header = packetfmt.decode_probe(
            packetfmt.stamp_destination_time(packet.payload,
                                             self.host.clock.now()))
        if header.seq in self._rtts:
            self.duplicates += 1
            return
        if header.source_time is None or header.destination_time is None:
            return  # malformed probe; ignore like a real tool would
        if header.seq < self._highest_seq_seen:
            self.reordered += 1  # arrived after a later-sent probe
        else:
            self._highest_seq_seen = header.seq
        self._rtts[header.seq] = header.destination_time - header.source_time

    # ------------------------------------------------------------------
    def trace(self, meta: Optional[dict] = None) -> ProbeTrace:
        """Build the :class:`ProbeTrace` for the probes sent so far.

        Probes that have not returned are recorded as lost (``rtt = 0``),
        so call this only after allowing the network to drain.
        """
        rtts = np.full(self.sent, LOST)
        for seq, rtt in self._rtts.items():
            if seq < self.sent:
                rtts[seq] = rtt
        combined_meta = {
            "source": self.host.name,
            "echo": self.echo_host,
            "clock_resolution": self.host.clock.resolution,
            "reordered": self.reordered,
            "duplicates": self.duplicates,
        }
        combined_meta.update(meta or {})
        return ProbeTrace(delta=self.delta,
                          send_times=np.asarray(self._send_sim_times),
                          rtts=rtts, payload_bytes=self.payload_bytes,
                          wire_bytes=self.payload_bytes
                          + UDP_WIRE_OVERHEAD_BYTES,
                          meta=combined_meta)

    def close(self) -> None:
        """Release the UDP port."""
        self.host.unbind_udp(self.port)
