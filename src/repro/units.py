"""Unit helpers and physical constants used throughout the library.

Internally the library uses SI base units everywhere: **seconds** for time,
**bits** for data volume, and **bits per second** for rates.  These helpers
exist so call sites can state their intent (``ms(50)`` rather than ``0.050``)
and so magic conversion factors appear exactly once.
"""

from __future__ import annotations

#: Bits per byte (octet).
BITS_PER_BYTE = 8


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def seconds_to_ms(value: float) -> float:
    """Convert seconds to milliseconds."""
    return value * 1e3


def seconds_to_us(value: float) -> float:
    """Convert seconds to microseconds."""
    return value * 1e6


def kbps(value: float) -> float:
    """Convert kilobits per second to bits per second."""
    return value * 1e3


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * 1e6


def bps_to_kbps(value: float) -> float:
    """Convert bits per second to kilobits per second."""
    return value / 1e3


def bps_to_mbps(value: float) -> float:
    """Convert bits per second to megabits per second."""
    return value / 1e6


def bytes_to_bits(value: float) -> float:
    """Convert bytes to bits."""
    return value * BITS_PER_BYTE

def bits_to_bytes(value: float) -> float:
    """Convert bits to bytes."""
    return value / BITS_PER_BYTE


def transmission_delay(size_bytes: float, rate_bps: float) -> float:
    """Time in seconds to serialize ``size_bytes`` onto a ``rate_bps`` link.

    >>> transmission_delay(72, 128_000)  # one Bolot probe on the bottleneck
    0.0045
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return bytes_to_bits(size_bytes) / rate_bps
