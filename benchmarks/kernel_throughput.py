"""Measure hot-path throughput and write ``benchmarks/BENCH_kernel.json``.

Run it with ``repro-bench run kernel [--quick] [--output-dir DIR]``.

Times the three hot-path workloads the perf tests guard:

* ``event_loop`` — the bare-kernel 100k-event chain (pure scheduling cost);
* ``forwarding`` — a 5-hop store-and-forward chain at 2000 pps (packet
  objects, queues, interfaces, allocation-free tx/deliver scheduling);
* ``calibrated`` — one simulated minute of the full INRIA-UMd scenario
  (cross-traffic RNG draws, faults, probes: the real workload).

``event_loop`` reports events/sec.  ``forwarding`` and ``calibrated``
report packet transmissions/sec, the sum of every interface's
``Interface.transmitted``: an idle hop executes one event and a busy one
two, so events/sec would move with the traffic's queueing rather than
with the speed of the code; their event counts stay in ``details``.
Each rate is the best of ``ROUNDS``, written in the shared
``repro-bench`` report schema (:mod:`repro.obs.bench`) so
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


#: What each workload's rate counts: a bare chain's work is its events,
#: a network's is its packet transmissions.
WORK = {"event_loop": "events", "forwarding": "transmissions",
        "calibrated": "transmissions"}


def transmissions(network: Network) -> int:
    """Packets every interface of ``network`` has finished sending."""
    return sum(interface.transmitted for node in network.nodes.values()
               for interface in node.interfaces.values())


def run_event_loop(chain_events: int) -> tuple[dict, float]:
    """Counts and wall seconds for the bare-kernel chain."""
    sim = Simulator(seed=0)

    def chain(remaining):
        if remaining:
            sim.schedule(0.001, lambda: chain(remaining - 1))

    sim.call_at(0.0, lambda: chain(chain_events))
    started = perf_counter()
    sim.run()
    elapsed = perf_counter() - started
    return {"events": sim.events_executed}, elapsed


def run_forwarding(duration: float) -> tuple[dict, float]:
    """Counts and wall seconds for the 5-hop forwarding chain."""
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
    elapsed = perf_counter() - started
    return {"events": sim.events_executed,
            "transmissions": transmissions(network)}, elapsed


def run_calibrated(duration: float) -> tuple[dict, float]:
    """Counts and wall seconds for the INRIA-UMd scenario."""
    scenario = build_inria_umd(seed=0)
    scenario.start_traffic()
    started = perf_counter()
    run_probe_experiment(scenario.network, scenario.source, scenario.echo,
                         delta=0.05, duration=duration, start_at=5.0)
    elapsed = perf_counter() - started
    return {"events": scenario.sim.events_executed,
            "transmissions": transmissions(scenario.network)}, elapsed


def best_rate(workload, arg, work: str) -> dict:
    """The workload's counts and its best-of-ROUNDS ``work`` per second."""
    best_rate_seen, counts = 0.0, {}
    for _ in range(ROUNDS):
        counts, elapsed = workload(arg)
        best_rate_seen = max(best_rate_seen, counts[work] / elapsed)
    return dict(counts, **{f"{work}_per_second": round(best_rate_seen)})


def collect(quick: bool = False) -> dict:
    """Run all three workloads; flat per-workload results."""
    params = QUICK if quick else FULL
    workloads = {
        "event_loop": best_rate(run_event_loop, params["chain_events"],
                                WORK["event_loop"]),
        "forwarding": best_rate(run_forwarding,
                                params["forwarding_seconds"],
                                WORK["forwarding"]),
        "calibrated": best_rate(run_calibrated,
                                params["calibrated_seconds"],
                                WORK["calibrated"]),
    }
    return {"rounds": ROUNDS, "params": params, "workloads": workloads}


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    metrics = {}
    for work in sorted(set(WORK.values())):
        metrics.update(flat_metrics(details["workloads"], unit=f"{work}/s",
                                    value_key=f"{work}_per_second"))
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)
