"""Traffic generators: the "Internet stream" of the paper's model.

The calibrated composite (:func:`attach_internet_mix`) is built from the
application sources :class:`FtpSource` (bulk transfers of 512-byte packets)
and :class:`TelnetSource` (interactive small packets).
:class:`PoissonSource` is the memoryless stream of the kernel throughput
benchmark, and :class:`ResponsiveBulkSource` the window-controlled bulk
flow of the responsive-traffic ablation.
"""

from repro.traffic.base import SINK_PORT, TrafficSink, TrafficSource
from repro.traffic.ftp import FtpSource
from repro.traffic.mix import InternetMix, attach_internet_mix
from repro.traffic.poisson import PoissonSource
from repro.traffic.sizes import (
    EmpiricalSize,
    FixedSize,
    FTP_PAYLOAD_BYTES,
    SizeDistribution,
    telnet_sizes,
)
from repro.traffic.tcpflows import ResponsiveBulkSource
from repro.traffic.telnet import TelnetSource

__all__ = [
    "SINK_PORT",
    "TrafficSink",
    "TrafficSource",
    "FtpSource",
    "InternetMix",
    "attach_internet_mix",
    "PoissonSource",
    "EmpiricalSize",
    "FixedSize",
    "FTP_PAYLOAD_BYTES",
    "SizeDistribution",
    "telnet_sizes",
    "TelnetSource",
    "ResponsiveBulkSource",
]
