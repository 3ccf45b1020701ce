"""Unit tests for the declarative path builder."""

import pytest

from repro.errors import ConfigurationError
from repro.net.clocks import QuantizedClock
from repro.net.host import Host
from repro.net.node import Node
from repro.topology.builder import LinkSpec, build_path
from repro.units import mbps, ms


class TestBuildPath:
    def test_creates_chain(self, sim):
        network = build_path(sim, ["a", "b", "c"],
                             [LinkSpec(mbps(10), ms(1))] * 2,
                             host_names=["a", "c"])
        assert network.path("a", "c") == ["a", "b", "c"]

    def test_host_vs_router_types(self, sim):
        network = build_path(sim, ["a", "b", "c"],
                             [LinkSpec(mbps(10), ms(1))] * 2,
                             host_names=["a", "c"])
        assert isinstance(network.node("a"), Host)
        assert isinstance(network.node("c"), Host)
        assert type(network.node("b")) is Node

    def test_clock_assignment(self, sim):
        clock = QuantizedClock(sim, resolution=0.004)
        network = build_path(sim, ["a", "b"], [LinkSpec(mbps(10), ms(1))],
                             host_names=["a", "b"], clocks={"a": clock})
        assert network.host("a").clock is clock
        assert network.host("b").clock is not clock

    def test_asymmetric_spec(self, sim):
        spec = LinkSpec(rate_bps=1000.0, prop_delay=0.1,
                        rate_bps_ba=2000.0, prop_delay_ba=0.2)
        network = build_path(sim, ["a", "b"], [spec],
                             host_names=["a", "b"])
        assert network.interface("a", "b").rate_bps == 1000.0
        assert network.interface("b", "a").rate_bps == 2000.0

    def test_processing_delay_on_routers(self, sim):
        network = build_path(sim, ["a", "r", "b"],
                             [LinkSpec(mbps(10), ms(1))] * 2,
                             host_names=["a", "b"], processing_delay=0.01)
        assert network.node("r").processing_delay == 0.01
        assert network.host("a").processing_delay == 0.0


class TestValidation:
    def test_link_count_mismatch(self, sim):
        with pytest.raises(ConfigurationError):
            build_path(sim, ["a", "b", "c"], [LinkSpec(mbps(10), ms(1))])

    def test_duplicate_names(self, sim):
        with pytest.raises(ConfigurationError):
            build_path(sim, ["a", "a"], [LinkSpec(mbps(10), ms(1))])

    def test_unknown_host_name(self, sim):
        with pytest.raises(ConfigurationError):
            build_path(sim, ["a", "b"], [LinkSpec(mbps(10), ms(1))],
                       host_names=["ghost"])

    def test_bad_link_spec(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(rate_bps=0.0, prop_delay=0.1)
        with pytest.raises(ConfigurationError):
            LinkSpec(rate_bps=1.0, prop_delay=-0.1)
