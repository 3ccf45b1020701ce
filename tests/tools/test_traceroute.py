"""Tests for the in-simulator traceroute."""

import pytest

from repro.errors import AddressError
from repro.tools.traceroute import (
    format_route_table,
    route_names,
    traceroute,
)
from repro.topology.inria_umd import TABLE1_ROUTE, build_inria_umd

from tests.topology.single_bottleneck import build_single_bottleneck


class TestTraceroute:
    def test_discovers_full_route(self):
        scenario = build_single_bottleneck(seed=1)
        hops = traceroute(scenario.network, "src", "echo")
        assert route_names(hops) == ["r-left", "r-right", "echo"]

    def test_rtts_increase_along_path(self):
        scenario = build_single_bottleneck(seed=1)
        hops = traceroute(scenario.network, "src", "echo")
        rtts = [hop.rtt for hop in hops]
        assert all(r is not None for r in rtts)
        assert rtts == sorted(rtts)

    def test_terminates_with_port_unreachable(self):
        scenario = build_single_bottleneck(seed=1)
        hops = traceroute(scenario.network, "src", "echo", max_hops=30)
        # Exactly one entry per hop; no probing beyond the destination.
        assert len(hops) == 3

    def test_max_hops_cap(self):
        scenario = build_single_bottleneck(seed=1)
        hops = traceroute(scenario.network, "src", "echo", max_hops=2)
        assert len(hops) == 2
        assert hops[-1].node == "r-right"

    def test_inria_umd_route_matches_table1(self):
        scenario = build_inria_umd(seed=1, utilization_fwd=0.0,
                                   utilization_rev=0.0, fault_drop_prob=0.0)
        hops = traceroute(scenario.network, scenario.source, scenario.echo)
        observed = [scenario.source] + route_names(hops)
        assert tuple(observed[:len(TABLE1_ROUTE)]) == TABLE1_ROUTE

    def test_unknown_destination(self):
        scenario = build_single_bottleneck(seed=1)
        with pytest.raises(AddressError):
            traceroute(scenario.network, "src", "ghost")

    def test_formatting(self):
        scenario = build_single_bottleneck(seed=1)
        hops = traceroute(scenario.network, "src", "echo")
        table = format_route_table(hops, title="route")
        assert table.startswith("route")
        assert "r-left" in table
        assert "ms" in table

    def test_unresponsive_hop_rendered_as_star(self):
        from repro.tools.traceroute import Hop
        assert Hop(index=3, node=None, rtt=None).format().endswith("*")
