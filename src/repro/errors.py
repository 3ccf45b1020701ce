"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An invariant of the discrete-event kernel was violated."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped simulator."""


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class AddressError(NetworkError):
    """An address or node name could not be resolved."""


class RoutingError(NetworkError):
    """No route exists between two nodes, or a routing table is malformed."""


class PortInUseError(NetworkError):
    """A UDP port is already bound on the host."""


class PacketFormatError(NetworkError):
    """A probe packet payload could not be encoded or decoded."""


class ConfigurationError(ReproError):
    """An experiment or topology was configured with invalid parameters."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class InsufficientDataError(AnalysisError):
    """Not enough (non-lost) samples to compute the requested statistic."""


class FitError(AnalysisError):
    """A model fit (gamma, AR, ...) failed to converge."""
