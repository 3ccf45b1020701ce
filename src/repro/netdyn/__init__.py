"""NetDyn: the UDP probe measurement tool (Sanghi et al. [22]), rebuilt.

Simulated agents (:mod:`~repro.netdyn.source`, :mod:`~repro.netdyn.echo`,
:mod:`~repro.netdyn.session`) and a live asyncio implementation
(:mod:`~repro.netdyn.live`) share one wire format
(:mod:`~repro.netdyn.packetfmt`) and one trace container
(:mod:`~repro.netdyn.trace`).
"""
