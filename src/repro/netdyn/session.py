"""One-call driver for a NetDyn measurement over a simulated network.

:func:`run_probe_experiment` wires a :class:`~repro.netdyn.source.SourceAgent`
and an :class:`~repro.netdyn.echo.EchoAgent` onto an existing
:class:`~repro.net.routing.Network`, runs the simulator for the duration of
the probe train plus a drain period, and returns the resulting
:class:`~repro.netdyn.trace.ProbeTrace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.net.routing import Network
from repro.netdyn.echo import ECHO_PORT, EchoAgent
from repro.netdyn.source import SINK_PORT, SourceAgent
from repro.netdyn.trace import ProbeTrace
from repro.units import seconds_to_ms

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.registry import MetricsRegistry

#: Extra simulated time after the last probe is sent, letting stragglers
#: return before they are declared lost.  Generous relative to any RTT the
#: calibrated topologies can produce.
DEFAULT_DRAIN = 5.0


def run_probe_experiment(network: Network, source: str, echo: str,
                         delta: float, count: Optional[int] = None,
                         duration: Optional[float] = None,
                         start_at: float = 0.0,
                         meta: Optional[dict] = None,
                         registry: Optional["MetricsRegistry"] = None,
                         ) -> ProbeTrace:
    """Run a NetDyn experiment and return its trace.

    Exactly one of ``count`` and ``duration`` must be given; ``duration``
    (seconds) is converted to a probe count, matching the paper's "each
    experiment lasts 10 minutes" specification.  Probes carry
    :data:`~repro.netdyn.packetfmt.PROBE_PAYLOAD_BYTES` of payload, and the
    run continues :data:`DEFAULT_DRAIN` seconds past the last send.

    Parameters
    ----------
    network:
        A built network with routes computed.  Traffic sources attached to
        it keep running during the measurement.
    source, echo:
        Host names of the probe source (= destination) and echo hosts.
    delta:
        Probe interval in seconds.
    start_at:
        Simulation time of the first probe.  Set it past zero to let cross
        traffic reach steady state first (warm-up).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        session registers its probe counters (``netdyn/probes_sent``,
        ``duplicates``, ``reordered``, ``echo_forwarded``) as pull-based
        instruments, so they appear in the run's metrics snapshot.
    """
    if (count is None) == (duration is None):
        raise ConfigurationError("give exactly one of count / duration")
    if duration is not None:
        count = max(1, int(round(duration / delta)))
    assert count is not None

    source_host = network.host(source)
    echo_host = network.host(echo)

    agent = SourceAgent(source_host, echo_host=echo, echo_port=ECHO_PORT,
                        delta=delta, count=count)
    echoer = EchoAgent(echo_host, destination=source,
                       destination_port=SINK_PORT)
    if registry is not None:
        registry.counter("netdyn/probes_sent",
                         source=lambda: agent.sent,
                         description="probes emitted by the source agent")
        registry.counter("netdyn/duplicates",
                         source=lambda: agent.duplicates,
                         description="duplicate probe returns discarded")
        registry.counter("netdyn/reordered",
                         source=lambda: agent.reordered,
                         description="probes that returned out of order")
        registry.counter("netdyn/echo_forwarded",
                         source=lambda: echoer.echoed,
                         description="probes bounced back by the echo agent")
    agent.start(at=start_at)

    end_time = start_at + count * delta + DEFAULT_DRAIN
    network.sim.run(until=end_time)

    trace_meta = {"delta_ms": seconds_to_ms(delta), "count": count}
    trace_meta.update(meta or {})
    trace = agent.trace(meta=trace_meta)
    agent.close()
    echoer.close()
    return trace
