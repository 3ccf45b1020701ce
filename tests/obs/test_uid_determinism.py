"""Packet uids are a per-simulation coordinate system.

Constructing a :class:`~repro.sim.kernel.Simulator` resets the packet-uid
counter, so the lifecycle trace of a cell depends only on the cell itself —
never on what else ran earlier in the same process.  This is what lets
campaign workers run many cells back-to-back and still produce traces that
join against single-cell reference runs.
"""

from repro.netdyn.session import run_probe_experiment
from repro.obs.lifecycle import PacketLifecycleTracer
from repro.topology.inria_umd import build_inria_umd


def _traced_cell():
    scenario = build_inria_umd(seed=5)
    tracer = PacketLifecycleTracer(scenario.network)
    scenario.start_traffic(at=0.0)
    run_probe_experiment(scenario.network, scenario.source, scenario.echo,
                         delta=0.05, count=60, start_at=2.0)
    return tracer.records


def test_back_to_back_cells_emit_identical_lifecycle_traces():
    first = _traced_cell()
    second = _traced_cell()
    assert len(first) > 0
    # HopRecord equality covers time, uid, event, place, kind, src, dst and
    # queue_len — uid continuity across runs would fail this immediately.
    assert first == second


def test_uids_restart_at_one_per_simulator():
    records = _traced_cell()
    assert min(record.uid for record in records) == 1
    records = _traced_cell()
    assert min(record.uid for record in records) == 1
