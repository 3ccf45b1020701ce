"""Tests for the in-simulator ping."""

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import RandomDropFault
from repro.tools.ping import ping

from tests.topology.single_bottleneck import build_single_bottleneck


class TestPing:
    def test_all_echoes_answered_on_idle_path(self):
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "echo", count=5)
        assert result.sent == 5
        assert result.received == 5
        assert result.loss_fraction == 0.0

    def test_rtt_reflects_path_delay(self):
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "echo", count=3)
        for rtt in result.rtts.values():
            assert 0.1 <= rtt <= 0.12  # 2 x 50 ms prop + serialization

    def test_routers_answer_echo_too(self):
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "r-left", count=2)
        assert result.received == 2

    def test_losses_counted(self):
        scenario = build_single_bottleneck(seed=1)
        fault = RandomDropFault(1.0, scenario.sim.streams.get("kill"))
        scenario.bottleneck_fwd.add_egress_fault(fault)
        result = ping(scenario.network, "src", "echo", count=4)
        assert result.received == 0
        assert result.loss_fraction == 1.0

    def test_summary_format(self):
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "echo", count=2)
        summary = result.summary()
        assert "2 packets transmitted, 2 received" in summary
        assert "rtt min/avg/max" in summary

    def test_summary_all_lost(self):
        scenario = build_single_bottleneck(seed=1)
        fault = RandomDropFault(1.0, scenario.sim.streams.get("kill"))
        scenario.bottleneck_fwd.add_egress_fault(fault)
        result = ping(scenario.network, "src", "echo", count=2)
        assert "100.0% packet loss" in result.summary()

    def test_interval_spacing(self):
        scenario = build_single_bottleneck(seed=1)
        start = scenario.sim.now
        ping(scenario.network, "src", "echo", count=3, interval=2.0)
        # 3 echoes at 2 s spacing plus the 3 s timeout.
        assert scenario.sim.now == pytest.approx(start + 9.0)

    def test_validation(self):
        scenario = build_single_bottleneck(seed=1)
        with pytest.raises(ConfigurationError):
            ping(scenario.network, "src", "echo", count=0)
        with pytest.raises(ConfigurationError):
            ping(scenario.network, "src", "echo", count=1, interval=0.0)

    def test_record_route_lists_both_directions(self):
        """The IP record-route option: forward and return hops appear,
        which is how the paper's Table 1 could be read off ping."""
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "echo", count=1,
                      record_route=True)
        assert result.route == ["r-left", "r-right", "echo",
                                "r-right", "r-left", "src"]

    def test_record_route_off_by_default(self):
        scenario = build_single_bottleneck(seed=1)
        result = ping(scenario.network, "src", "echo", count=1)
        assert result.route is None

    def test_two_pings_do_not_interfere(self):
        scenario = build_single_bottleneck(seed=1)
        first = ping(scenario.network, "src", "echo", count=2, ident=1)
        second = ping(scenario.network, "src", "echo", count=2, ident=2)
        assert first.received == 2
        assert second.received == 2
