"""Metrics registry: pull-based instruments, snapshots, and network
instrumentation."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    SEPARATOR,
    MetricsRegistry,
    instrument_network,
)
from repro.topology.inria_umd import build_inria_umd


class TestInstruments:
    def test_bound_counter_reads_source(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        counter = registry.counter("jobs/seen", source=lambda: state["n"])
        state["n"] = 7
        assert counter.value() == 7

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue/depth", source=lambda: 3)
        assert gauge.value() == 3.0


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a/b", source=lambda: 0)
        with pytest.raises(ConfigurationError):
            registry.gauge("a/b", source=lambda: 0.0)

    def test_lookup_and_contains(self):
        registry = MetricsRegistry()
        counter = registry.counter("x/y/z", source=lambda: 0)
        assert "x/y/z" in registry
        assert registry.get("x/y/z") is counter
        assert len(registry) == 1
        assert registry.names() == ["x/y/z"]

    def test_snapshot_nests_on_separator(self):
        registry = MetricsRegistry()
        registry.counter("net/a/sent", source=lambda: 1)
        registry.counter("net/a/lost", source=lambda: 2)
        registry.gauge("net/b/util", source=lambda: 0.5)
        assert SEPARATOR == "/"
        assert registry.snapshot() == {
            "net": {"a": {"sent": 1, "lost": 2}, "b": {"util": 0.5}}}

    def test_dotted_hostnames_stay_one_level(self):
        registry = MetricsRegistry()
        registry.counter("net/icm-sophia.icp.net/forwarded",
                         source=lambda: 9)
        snap = registry.snapshot()
        assert snap["net"]["icm-sophia.icp.net"]["forwarded"] == 9


class TestInstrumentNetwork:
    @pytest.fixture(scope="class")
    def scenario(self):
        scenario = build_inria_umd(seed=4)
        scenario.start_traffic()
        scenario.sim.run(until=10.0)
        return scenario

    def test_standard_instruments_registered(self, scenario):
        registry = MetricsRegistry()
        instrument_network(registry, scenario.network)
        names = registry.names()
        assert any(name.endswith("/queue/drops") for name in names)
        assert any(name.endswith("/utilization") for name in names)
        assert any(name.endswith("/forwarded") for name in names)

    def test_snapshot_reflects_simulated_traffic(self, scenario):
        registry = MetricsRegistry()
        instrument_network(registry, scenario.network)
        flat = registry.flat_snapshot()
        assert sum(value for name, value in flat.items()
                   if name.endswith("/transmitted")) > 0

    def test_utilization_gauge_matches_interface(self, scenario):
        registry = MetricsRegistry()
        instrument_network(registry, scenario.network)
        iface = scenario.bottleneck_fwd
        name = (f"net/{iface.node.name}/if/{iface.peer.name}/utilization")
        assert registry.get(name).value() == iface.utilization_estimate()
        assert 0.0 < iface.utilization_estimate() <= 1.0

    def test_instrumentation_after_run_sees_final_counts(self, scenario):
        # Pull-based: registering after the run reads the same state.
        before = MetricsRegistry()
        instrument_network(before, scenario.network)
        after = MetricsRegistry()
        instrument_network(after, scenario.network)
        assert before.flat_snapshot() == after.flat_snapshot()
