"""Tests for the NSFNET backbone mesh."""

from repro.netdyn.session import run_probe_experiment
from repro.tools.ping import ping
from repro.tools.traceroute import route_names, traceroute
from repro.topology.nsfnet import (
    NSFNET_LINKS,
    NSFNET_SITES,
    build_nsfnet,
)


class TestTopology:
    def test_all_sites_and_hosts_present(self):
        scenario = build_nsfnet(seed=1)
        for site in NSFNET_SITES:
            assert site in scenario.network.nodes
            assert scenario.host_at(site) in scenario.network.nodes

    def test_backbone_is_connected(self):
        scenario = build_nsfnet(seed=1)
        for site in NSFNET_SITES[1:]:
            path = scenario.network.path(NSFNET_SITES[0], site)
            assert path[0] == NSFNET_SITES[0]
            assert path[-1] == site

    def test_shortest_path_taken(self):
        scenario = build_nsfnet(seed=1)
        # Ithaca - Pittsburgh are directly linked.
        path = scenario.network.path("Ithaca", "Pittsburgh")
        assert path == ["Ithaca", "Pittsburgh"]

    def test_cross_country_multi_hop(self):
        scenario = build_nsfnet(seed=1)
        path = scenario.network.path("Seattle", "Princeton")
        assert 3 <= len(path) <= 8

    def test_link_count(self):
        scenario = build_nsfnet(seed=1)
        # backbone + one access link per site, both directions each.
        expected_edges = (len(NSFNET_LINKS) + len(NSFNET_SITES)) * 2
        interfaces = sum(len(node.interfaces)
                         for node in scenario.network.nodes.values())
        assert interfaces == expected_edges


class TestMeasurementsAcrossMesh:
    def test_ping_coast_to_coast(self):
        scenario = build_nsfnet(seed=1)
        result = ping(scenario.network, scenario.host_at("Seattle"),
                      scenario.host_at("Princeton"), count=2)
        assert result.received == 2
        # Cross-country T1 path: tens of milliseconds round trip.
        for rtt in result.rtts.values():
            assert 0.02 <= rtt <= 0.2

    def test_traceroute_reveals_backbone_route(self):
        scenario = build_nsfnet(seed=1)
        hops = traceroute(scenario.network, scenario.host_at("SanDiego"),
                          scenario.host_at("Ithaca"))
        names = route_names(hops)
        assert names[-1] == scenario.host_at("Ithaca")
        backbone_hops = [n for n in names if n in NSFNET_SITES]
        assert "SanDiego" in backbone_hops
        assert "Ithaca" in backbone_hops

    def test_probe_experiment_across_mesh(self):
        scenario = build_nsfnet(seed=1)
        trace = run_probe_experiment(scenario.network,
                                     scenario.host_at("CollegePark"),
                                     scenario.host_at("Boulder"),
                                     delta=0.05, count=100)
        assert trace.loss_fraction == 0.0
        assert trace.min_rtt() < 0.1

    def test_triangle_inequality_of_rtts(self):
        """Direct routes are no slower than detours (shortest-path)."""
        scenario = build_nsfnet(seed=1)
        rtts = {}
        for a, b in (("Ithaca", "Pittsburgh"), ("Ithaca", "Princeton"),
                     ("Pittsburgh", "Princeton")):
            result = ping(scenario.network, scenario.host_at(a),
                          scenario.host_at(b), count=1)
            rtts[(a, b)] = result.rtts[0]
        assert rtts[("Ithaca", "Princeton")] <= \
            rtts[("Ithaca", "Pittsburgh")] \
            + rtts[("Pittsburgh", "Princeton")] + 1e-9
