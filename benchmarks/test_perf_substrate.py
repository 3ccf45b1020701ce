"""Performance benchmarks of the substrate itself (not paper figures).

These use pytest-benchmark conventionally (multiple rounds) to track the
simulator's speed: event-loop throughput, hop-by-hop forwarding cost, and
the full calibrated scenario's cost per simulated second.  They guard
against performance regressions that would make the paper-length
(REPRO_FULL_EXPERIMENTS=1) runs impractical.
"""

from repro.net.routing import Network
from repro.netdyn.session import run_probe_experiment
from repro.sim.kernel import Simulator
from repro.topology.inria_umd import build_inria_umd
from repro.traffic.base import TrafficSink
from repro.traffic.poisson import PoissonSource
from repro.units import mbps, ms


def test_perf_event_loop(benchmark):
    """Schedule-and-run throughput of the bare kernel (100k events)."""

    def run_events():
        sim = Simulator(seed=0)

        def chain(remaining):
            if remaining:
                sim.schedule(0.001, lambda: chain(remaining - 1))

        sim.call_at(0.0, lambda: chain(100_000))
        sim.run()
        return sim.events_executed

    events = benchmark(run_events)
    assert events == 100_001


def test_perf_forwarding_path(benchmark):
    """Packets per second through a 5-hop store-and-forward chain."""

    def run_packets():
        sim = Simulator(seed=0)
        network = Network(sim)
        names = [f"n{i}" for i in range(6)]
        network.add_host(names[0])
        for name in names[1:-1]:
            network.add_router(name)
        network.add_host(names[-1])
        for a, b in zip(names, names[1:]):
            network.link(a, b, rate_bps=mbps(100), prop_delay=ms(0.1))
        network.compute_routes()
        sink = TrafficSink(network.host(names[-1]))
        source = PoissonSource(network.host(names[0]), names[-1],
                               rate_pps=2000.0)
        source.start()
        sim.run(until=5.0)
        source.stop()
        sim.run()
        return sink.packets

    delivered = benchmark(run_packets)
    assert delivered > 8000  # ~10k expected


def test_perf_calibrated_scenario(benchmark):
    """Cost of one simulated minute of the full INRIA-UMd scenario."""

    def run_minute():
        scenario = build_inria_umd(seed=0)
        scenario.start_traffic()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.05,
                                     duration=60.0, start_at=5.0)
        return len(trace)

    probes = benchmark.pedantic(run_minute, rounds=3, iterations=1)
    assert probes == 1200
