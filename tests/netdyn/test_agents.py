"""Integration tests for the NetDyn source/echo agents over the simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.clocks import QuantizedClock
from repro.net.faults import RandomDropFault
from repro.netdyn.echo import ECHO_PORT, EchoAgent
from repro.netdyn.session import run_probe_experiment
from repro.netdyn.source import SINK_PORT, SourceAgent
from repro.units import kbps, ms

from tests.topology.single_bottleneck import build_single_bottleneck


def make_net(**kwargs):
    return build_single_bottleneck(seed=3, rate_bps=kbps(128),
                                   prop_delay=ms(50), **kwargs)


class TestProbeRoundTrip:
    def test_all_probes_return_on_idle_path(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=50)
        assert trace.loss_fraction == 0.0
        assert len(trace) == 50

    def test_rtt_close_to_physical_delay(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=20)
        # Two transatlantic crossings at 50 ms plus serialization.
        assert 0.1 <= trace.min_rtt() <= 0.12

    def test_rtt_constant_on_idle_path(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=20)
        assert np.ptp(trace.valid_rtts) < 1e-9

    def test_duration_interface(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.1, duration=5.0)
        assert len(trace) == 50

    def test_count_and_duration_mutually_exclusive(self):
        scenario = make_net()
        with pytest.raises(ConfigurationError):
            run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.1, count=10,
                                 duration=5.0)
        with pytest.raises(ConfigurationError):
            run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.1)

    def test_meta_recorded(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=5,
                                     meta={"tag": "x"})
        assert trace.meta["tag"] == "x"
        assert trace.meta["source"] == scenario.source
        assert trace.meta["echo"] == scenario.echo


class TestLossAccounting:
    def test_dropped_probes_marked_lost(self):
        scenario = make_net()
        fault = RandomDropFault(1.0, scenario.sim.streams.get("kill"))
        scenario.bottleneck_fwd.add_egress_fault(fault)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=30)
        assert trace.loss_fraction == 1.0

    def test_partial_loss(self):
        scenario = make_net()
        fault = RandomDropFault(0.5, scenario.sim.streams.get("half"))
        scenario.bottleneck_fwd.add_egress_fault(fault)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=400)
        assert 0.35 <= trace.loss_fraction <= 0.65


class TestClockEffects:
    def test_quantized_clock_quantizes_rtts(self):
        scenario = make_net()
        host = scenario.network.host(scenario.source)
        host.clock = QuantizedClock(scenario.sim, resolution=0.004)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=20)
        # rtt = quantized(recv) - quantized(send): multiples of 4 ms.
        remainders = np.mod(trace.valid_rtts, 0.004)
        assert np.all((remainders < 1e-9) | (remainders > 0.004 - 1e-9))

    def test_clock_resolution_in_meta(self):
        scenario = make_net()
        host = scenario.network.host(scenario.source)
        host.clock = QuantizedClock(scenario.sim, resolution=0.004)
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=5)
        assert trace.meta["clock_resolution"] == pytest.approx(0.004)


class TestReordering:
    def test_fifo_path_never_reorders(self):
        scenario = make_net()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05, count=100)
        assert trace.meta["reordered"] == 0

    def test_route_flap_causes_reordering(self):
        """Probes in flight on the long path are overtaken by probes sent
        later on the short path — the reordering [19] correlates with
        route changes."""
        from repro.net.faults import RouteFlapFault
        from repro.net.routing import Network
        from repro.sim.kernel import Simulator
        from repro.units import mbps

        sim = Simulator(seed=4)
        network = Network(sim)
        network.add_host("src")
        network.add_host("echo")
        network.add_router("short")
        network.add_router("long")
        network.link("src", "short", rate_bps=mbps(10), prop_delay=ms(1))
        network.link("short", "echo", rate_bps=mbps(10), prop_delay=ms(1))
        network.link("src", "long", rate_bps=mbps(10), prop_delay=ms(200))
        network.link("long", "echo", rate_bps=mbps(10), prop_delay=ms(200))
        network.compute_routes()
        network.node("src").set_next_hop("echo", "long")
        flap = RouteFlapFault(sim, network.node("src"), destination="echo",
                              primary_peer="long", backup_peer="short",
                              period=0.5)
        flap.install()
        trace = run_probe_experiment(network, "src", "echo", delta=0.05,
                                     count=200)
        assert trace.meta["reordered"] > 0


class TestAgentsDirectly:
    def test_source_agent_validation(self):
        scenario = make_net()
        host = scenario.network.host(scenario.source)
        with pytest.raises(ConfigurationError):
            SourceAgent(host, scenario.echo, ECHO_PORT, delta=0.0, count=10)
        with pytest.raises(ConfigurationError):
            SourceAgent(host, scenario.echo, ECHO_PORT, delta=0.1, count=0)

    def test_echo_agent_counts(self):
        scenario = make_net()
        source_host = scenario.network.host(scenario.source)
        echo_host = scenario.network.host(scenario.echo)
        agent = SourceAgent(source_host, scenario.echo, ECHO_PORT,
                            delta=0.05, count=10)
        echoer = EchoAgent(echo_host, destination=scenario.source,
                           destination_port=SINK_PORT)
        agent.start()
        scenario.sim.run(until=5.0)
        assert echoer.echoed == 10
        assert agent.trace().loss_fraction == 0.0

    def test_ports_released_after_close(self):
        scenario = make_net()
        source_host = scenario.network.host(scenario.source)
        agent = SourceAgent(source_host, scenario.echo, ECHO_PORT,
                            delta=0.05, count=1)
        agent.close()
        # Rebinding must now succeed.
        SourceAgent(source_host, scenario.echo, ECHO_PORT, delta=0.05,
                    count=1)
