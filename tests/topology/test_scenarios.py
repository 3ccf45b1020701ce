"""Tests for the calibrated paper topologies."""

import pytest

from repro.netdyn.session import run_probe_experiment
from repro.topology.inria_umd import (
    TABLE1_ROUTE,
    build_inria_umd,
)
from repro.topology.umd_pitt import TABLE2_ROUTE, build_umd_pitt
from repro.units import kbps

from tests.topology.single_bottleneck import build_single_bottleneck


class TestInriaUmd:
    def test_route_matches_table1(self):
        scenario = build_inria_umd(seed=1, utilization_fwd=0.0,
                                   utilization_rev=0.0, fault_drop_prob=0.0)
        path = scenario.network.path(scenario.source, scenario.echo)
        assert tuple(path[:len(TABLE1_ROUTE)]) == TABLE1_ROUTE
        assert path[-1] == scenario.echo

    def test_bottleneck_is_transatlantic_128k(self):
        scenario = build_inria_umd(seed=1)
        assert scenario.bottleneck_rate_bps == kbps(128)
        assert scenario.bottleneck_fwd.node.name == "icm-sophia.icp.net"

    def test_fixed_rtt_near_140ms(self):
        scenario = build_inria_umd(seed=1, utilization_fwd=0.0,
                                   utilization_rev=0.0, fault_drop_prob=0.0)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=50)
        assert trace.loss_fraction == 0.0
        assert 0.125 <= trace.min_rtt() <= 0.155

    def test_quantized_clock_default(self):
        scenario = build_inria_umd(seed=1)
        clock = scenario.network.host(scenario.source).clock
        assert clock.resolution == pytest.approx(3.906e-3)

    def test_perfect_clock_option(self):
        scenario = build_inria_umd(seed=1, quantized_clock=False)
        clock = scenario.network.host(scenario.source).clock
        assert clock.resolution == 0.0

    def test_faults_attached_to_sura_segment(self):
        scenario = build_inria_umd(seed=1, fault_drop_prob=0.02)
        assert len(scenario.faults) == 2
        iface = scenario.network.interface("nss-SURA-eth.sura.net",
                                           "sura8-umd-c1.sura.net")
        assert scenario.faults[0] in iface.egress_faults

    def test_no_faults_when_disabled(self):
        scenario = build_inria_umd(seed=1, fault_drop_prob=0.0)
        assert scenario.faults == []

    def test_loaded_path_loses_probes(self):
        scenario = build_inria_umd(seed=2)
        scenario.start_traffic()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=1200,
                                     start_at=30.0)
        assert 0.03 <= trace.loss_fraction <= 0.25

    def test_same_seed_reproduces_trace(self):
        traces = []
        for _ in range(2):
            scenario = build_inria_umd(seed=9)
            scenario.start_traffic()
            traces.append(run_probe_experiment(
                scenario.network, scenario.source, scenario.echo,
                delta=0.05, count=300, start_at=10.0))
        assert traces[0].rtts.tolist() == traces[1].rtts.tolist()


class TestUmdPitt:
    def test_route_matches_table2(self):
        scenario = build_umd_pitt(seed=1, utilization_fwd=0.0,
                                  utilization_rev=0.0)
        path = scenario.network.path(scenario.source, scenario.echo)
        assert tuple(path[:len(TABLE2_ROUTE)]) == TABLE2_ROUTE

    def test_fast_bottleneck(self):
        scenario = build_umd_pitt(seed=1)
        assert scenario.bottleneck_rate_bps > 50 * kbps(128)

    def test_low_base_rtt(self):
        scenario = build_umd_pitt(seed=1, utilization_fwd=0.0,
                                  utilization_rev=0.0, quantized_clock=False)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=20)
        assert trace.min_rtt() < 0.06

    def test_3ms_clock(self):
        scenario = build_umd_pitt(seed=1)
        clock = scenario.network.host(scenario.source).clock
        assert clock.resolution == pytest.approx(3e-3)


class TestSingleBottleneck:
    def test_structure(self):
        scenario = build_single_bottleneck(seed=1)
        assert scenario.network.path("src", "echo") == \
            ["src", "r-left", "r-right", "echo"]

    def test_cross_hosts_optional(self):
        scenario = build_single_bottleneck(seed=1, with_cross_hosts=False)
        assert scenario.cross_sender is None
        assert "cross-l" not in scenario.network.nodes

    def test_cross_traffic_path_shares_bottleneck(self):
        scenario = build_single_bottleneck(seed=1)
        path = scenario.network.path("cross-l", "cross-r")
        assert path == ["cross-l", "r-left", "r-right", "cross-r"]

    def test_probe_rtt_reflects_parameters(self):
        from repro.units import ms
        scenario = build_single_bottleneck(seed=1, prop_delay=ms(10))
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=10)
        # Two crossings at 10 ms plus serialization at 128 kb/s.
        assert 0.02 <= trace.min_rtt() <= 0.04
