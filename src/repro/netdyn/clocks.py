"""Host clock models (re-exported from :mod:`repro.net.clocks`).

The implementations live in the network substrate because every
:class:`~repro.net.host.Host` carries a clock; they are re-exported here
because quantized clocks are first and foremost a *measurement* concern
(the DECstation 5000's 3.906 ms tick shapes the paper's figures).
"""

from repro.net.clocks import (
    Clock,
    DECSTATION_RESOLUTION,
    PerfectClock,
    QuantizedClock,
    UMD_RESOLUTION,
)

__all__ = [
    "Clock",
    "PerfectClock",
    "QuantizedClock",
    "DECSTATION_RESOLUTION",
    "UMD_RESOLUTION",
]
