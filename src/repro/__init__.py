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

    from repro.analysis.loss import loss_stats
    from repro.netdyn.session import run_probe_experiment
    from repro.topology.inria_umd import build_inria_umd

    scenario = build_inria_umd(seed=1)
    scenario.start_traffic()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=2000,
                                 start_at=30.0)
    print(loss_stats(trace))

Every name is imported from the module that defines it; the packages
re-export nothing.
"""

__version__ = "1.0.0"
