"""Non-finite parameters fail where they are set, naming the parameter.

A NaN passes every plain comparison (``nan <= 0`` is false), so a range
check alone lets it through to a scheduling error, or to a fault that
silently never fires.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_experiment
from repro.net.clocks import QuantizedClock
from repro.net.faults import PeriodicStallFault, RouteFlapFault
from repro.net.routing import Network
from repro.traffic.ftp import FtpSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.tcpflows import ResponsiveBulkSource
from repro.traffic.telnet import TelnetSource
from repro.units import mbps

NAN = math.nan
INF = math.inf


def hosts(sim):
    network = Network(sim)
    a, b = network.add_host("a"), network.add_host("b")
    network.link("a", "b", rate_bps=mbps(1), prop_delay=0.001)
    network.compute_routes()
    return network, a, b


def experiment(**scenario_kwargs):
    execute_experiment(ExperimentConfig(delta=0.05, duration=1.0,
                                        scenario_kwargs=scenario_kwargs))


CASES = {
    "stall-period-nan": ("period", lambda sim: PeriodicStallFault(NAN, 0.1)),
    "stall-period-inf": ("period", lambda sim: PeriodicStallFault(INF, 0.1)),
    "stall-stall-nan": ("stall", lambda sim: PeriodicStallFault(1.0, NAN)),
    "stall-phase-nan": ("phase",
                        lambda sim: PeriodicStallFault(1.0, 0.1, NAN)),
    "flap-period-nan": ("period", lambda sim: RouteFlapFault(
        sim, hosts(sim)[1], "b", "b", "b", NAN)),
    "ftp-session-rate-nan": ("session_rate", lambda sim: FtpSource(
        hosts(sim)[1], "b", session_rate=NAN)),
    "ftp-mean-file-nan": ("mean_file_packets", lambda sim: FtpSource(
        hosts(sim)[1], "b", session_rate=1.0, mean_file_packets=NAN)),
    "ftp-window-interval-inf": ("window_interval", lambda sim: FtpSource(
        hosts(sim)[1], "b", session_rate=1.0, window_interval=INF)),
    "poisson-rate-nan": ("rate_pps", lambda sim: PoissonSource(
        hosts(sim)[1], "b", rate_pps=NAN)),
    "telnet-rate-inf": ("rate_pps", lambda sim: TelnetSource(
        hosts(sim)[1], "b", rate_pps=INF)),
    "tcp-session-rate-nan": ("session_rate", lambda sim: ResponsiveBulkSource(
        *hosts(sim)[1:], session_rate=NAN)),
    "tcp-mean-file-inf": ("mean_file_segments",
                          lambda sim: ResponsiveBulkSource(
                              *hosts(sim)[1:], session_rate=1.0,
                              mean_file_segments=INF)),
    "clock-resolution-nan": ("resolution",
                             lambda sim: QuantizedClock(sim, NAN)),
    "scenario-window-interval-nan": (
        "window_interval", lambda sim: experiment(window_interval=NAN)),
    "scenario-mean-file-nan": (
        "mean_file_packets", lambda sim: experiment(mean_file_packets=NAN)),
}


@pytest.mark.parametrize("name, make", CASES.values(), ids=CASES.keys())
def test_non_finite_parameter_is_rejected(sim, name, make):
    with pytest.raises(ConfigurationError, match=name):
        make(sim)
