"""Measure hot-path throughput and write ``benchmarks/BENCH_kernel.json``.

Run it with ``repro-bench run kernel [--quick] [--output-dir DIR]``.

Times the three hot-path workloads the perf tests guard:

* ``event_loop`` — the bare-kernel 100k-event chain (pure scheduling cost);
* ``forwarding`` — a 5-hop store-and-forward chain at 2000 pps (packet
  objects, queues, interfaces, allocation-free tx/deliver scheduling);
* ``calibrated`` — one simulated minute of the full INRIA-UMd scenario
  (cross-traffic RNG draws, faults, probes: the real workload).

Each workload reports events/sec (best of ``ROUNDS``), written in the
shared ``repro-bench`` report schema (:mod:`repro.obs.bench`) so
``repro-bench compare`` can flag regressions between two runs.

``--quick`` shrinks every workload (CI smoke); quick numbers are only
comparable to other quick runs, and the report says which mode ran.
"""

from __future__ import annotations

from time import perf_counter

from repro.net.routing import Network
from repro.netdyn.session import run_probe_experiment
from repro.obs.bench import build_report, flat_metrics
from repro.sim.kernel import Simulator
from repro.topology.inria_umd import build_inria_umd
from repro.traffic.base import TrafficSink
from repro.traffic.poisson import PoissonSource
from repro.units import mbps, ms

SUITE = "kernel"

ROUNDS = 3

FULL = {"chain_events": 100_000, "forwarding_seconds": 5.0,
        "calibrated_seconds": 60.0}
QUICK = {"chain_events": 20_000, "forwarding_seconds": 1.0,
         "calibrated_seconds": 10.0}


def run_event_loop(chain_events: int) -> tuple[int, float]:
    """Events executed and wall seconds for the bare-kernel chain."""
    sim = Simulator(seed=0)

    def chain(remaining):
        if remaining:
            sim.schedule(0.001, lambda: chain(remaining - 1))

    sim.call_at(0.0, lambda: chain(chain_events))
    started = perf_counter()
    sim.run()
    return sim.events_executed, perf_counter() - started


def run_forwarding(duration: float) -> tuple[int, float]:
    """Events executed and wall seconds for the 5-hop forwarding chain."""
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
    TrafficSink(network.host(names[-1]))
    source = PoissonSource(network.host(names[0]), names[-1],
                           rate_pps=2000.0)
    source.start()
    started = perf_counter()
    sim.run(until=duration)
    source.stop()
    sim.run()
    return sim.events_executed, perf_counter() - started


def run_calibrated(duration: float) -> tuple[int, float]:
    """Events executed and wall seconds for the INRIA-UMd scenario."""
    scenario = build_inria_umd(seed=0)
    scenario.start_traffic()
    started = perf_counter()
    run_probe_experiment(scenario.network, scenario.source, scenario.echo,
                         delta=0.05, duration=duration, start_at=5.0)
    return scenario.sim.events_executed, perf_counter() - started


def best_rate(workload, arg) -> dict:
    """Best-of-ROUNDS events/sec for one workload."""
    best_rate_seen, events = 0.0, 0
    for _ in range(ROUNDS):
        events, elapsed = workload(arg)
        best_rate_seen = max(best_rate_seen, events / elapsed)
    return {"events": events, "events_per_second": round(best_rate_seen)}


def collect(quick: bool = False) -> dict:
    """Run all three workloads; flat per-workload results."""
    params = QUICK if quick else FULL
    workloads = {
        "event_loop": best_rate(run_event_loop, params["chain_events"]),
        "forwarding": best_rate(run_forwarding,
                                params["forwarding_seconds"]),
        "calibrated": best_rate(run_calibrated,
                                params["calibrated_seconds"]),
    }
    return {"rounds": ROUNDS, "params": params, "workloads": workloads}


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    return build_report(
        SUITE, flat_metrics(details["workloads"], unit="events/s"),
        mode="quick" if quick else "full", details=details)
