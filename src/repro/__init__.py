"""repro: reproduction of Bolot, *End-to-End Packet Delay and Loss Behavior
in the Internet* (SIGCOMM 1993).

The library has three layers:

1. **Substrate** — a deterministic discrete-event network simulator
   (:mod:`repro.sim`, :mod:`repro.net`), calibrated topologies of the
   paper's two measurement paths (:mod:`repro.topology`), and the traffic
   generators standing in for 1992 Internet cross traffic
   (:mod:`repro.traffic`).
2. **Measurement** — the NetDyn UDP probe tool (:mod:`repro.netdyn`),
   usable against the simulator or (via asyncio) against real networks,
   plus in-simulator ping/traceroute (:mod:`repro.tools`) and the
   prior-art baselines (:mod:`repro.baselines`).
3. **Analysis** — phase plots, Lindley/workload estimation, loss
   statistics, delay-model fitting (:mod:`repro.analysis`), the analytic
   queueing models (:mod:`repro.queueing`), and the per-figure experiment
   drivers (:mod:`repro.experiments`).

Quick start::

    from repro import build_inria_umd, run_probe_experiment, loss_stats
    scenario = build_inria_umd(seed=1)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=2000,
                                 start_at=30.0)
    print(loss_stats(trace))
"""

from repro.analysis import (
    detect_compression,
    estimate_bottleneck_mu,
    fit_constant_plus_gamma,
    loss_stats,
    phase_points,
    summarize,
    workload_distribution,
)
from repro.net import Network
from repro.netdyn import ProbeTrace, run_probe_experiment
from repro.sim import Simulator
from repro.tools import ping, traceroute
from repro.topology import build_inria_umd, build_umd_pitt

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Simulator",
    "Network",
    "ProbeTrace",
    "run_probe_experiment",
    "build_inria_umd",
    "build_umd_pitt",
    "ping",
    "traceroute",
    "loss_stats",
    "phase_points",
    "estimate_bottleneck_mu",
    "workload_distribution",
    "detect_compression",
    "fit_constant_plus_gamma",
    "summarize",
]
