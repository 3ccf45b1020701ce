"""NetDyn: the UDP probe measurement tool (Sanghi et al. [22]), rebuilt.

Simulated agents (:mod:`~repro.netdyn.source`, :mod:`~repro.netdyn.echo`,
:mod:`~repro.netdyn.session`) and a live asyncio implementation
(:mod:`~repro.netdyn.live`) share one wire format
(:mod:`~repro.netdyn.packetfmt`) and one trace container
(:mod:`~repro.netdyn.trace`).
"""

from repro.netdyn.echo import ECHO_PORT, EchoAgent
from repro.netdyn.packetfmt import (
    PROBE_PAYLOAD_BYTES,
    ProbeHeader,
    decode_probe,
    encode_probe,
)
from repro.netdyn.session import run_probe_experiment
from repro.netdyn.source import SINK_PORT, SourceAgent
from repro.netdyn.trace import LOST, ProbeTrace

__all__ = [
    "EchoAgent",
    "ECHO_PORT",
    "SourceAgent",
    "SINK_PORT",
    "ProbeHeader",
    "encode_probe",
    "decode_probe",
    "PROBE_PAYLOAD_BYTES",
    "run_probe_experiment",
    "ProbeTrace",
    "LOST",
]
