"""Packet-lifecycle tracing: reconstruction, fates, and the probe join."""

import pytest

from repro.net.packet import KIND_UDP
from repro.netdyn.session import run_probe_experiment
from repro.obs.lifecycle import (
    EVENT_CREATED,
    EVENT_ENQUEUED,
    EVENT_RECEIVED,
    EVENT_TX_DONE,
    TERMINAL_EVENTS,
    PacketLifecycleTracer,
    probe_uids,
)
from repro.netdyn.trace import LOST
from repro.topology.inria_umd import build_inria_umd


@pytest.fixture(scope="module")
def traced_run():
    """One idle-path probe run with lifecycle tracing attached."""
    scenario = build_inria_umd(seed=9, utilization_fwd=0.0,
                               utilization_rev=0.0, fault_drop_prob=0.0)
    tracer = PacketLifecycleTracer(scenario.network)
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=0.05, count=50)
    tracer.close()
    return scenario, tracer, trace


class TestReconstruction:
    def test_every_probe_has_a_path(self, traced_run):
        scenario, tracer, trace = traced_run
        uids = probe_uids(tracer, scenario.source, scenario.echo)
        assert len(uids) == len(trace) == 50
        for uid in uids:
            path = tracer.path(uid)
            assert path[0].event == EVENT_CREATED
            assert path[0].place == scenario.source
            times = [record.time for record in path]
            assert times == sorted(times)

    def test_surviving_probe_reaches_echo(self, traced_run):
        scenario, tracer, trace = traced_run
        uids = probe_uids(tracer, scenario.source, scenario.echo)
        # Idle path, no faults: every probe survives.
        assert trace.loss_count == 0
        fate = tracer.fate(uids[0])
        assert fate is not None
        assert fate.event == EVENT_RECEIVED
        assert fate.place == scenario.echo

    def test_hop_sequence_crosses_each_queue_once(self, traced_run):
        scenario, tracer, _trace = traced_run
        uid = probe_uids(tracer, scenario.source, scenario.echo)[0]
        path = tracer.path(uid)
        enqueues = [record for record in path
                    if record.event == EVENT_ENQUEUED]
        tx_dones = [record for record in path
                    if record.event == EVENT_TX_DONE]
        assert len(enqueues) == len(tx_dones) > 0
        # Occupancy at enqueue includes the packet itself.
        assert all(record.queue_len >= 1 for record in enqueues)

    def test_join_with_probe_trace_rtt(self, traced_run):
        scenario, tracer, trace = traced_run
        uids = probe_uids(tracer, scenario.source, scenario.echo)
        for n in (0, 10, 49):
            outbound = tracer.path(uids[n])
            assert outbound[0].time == pytest.approx(trace.send_times[n])

    def test_no_records_after_close(self, traced_run):
        scenario, tracer, _trace = traced_run
        count = len(tracer.records)
        scenario.sim.run(until=scenario.sim.now + 1.0)
        assert len(tracer.records) == count


class TestDropsAndFilters:
    def test_drops_recorded_under_load(self):
        scenario = build_inria_umd(seed=3)
        tracer = PacketLifecycleTracer(scenario.network)
        scenario.start_traffic()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.02, count=400,
                                     start_at=10.0)
        tracer.close()
        assert trace.loss_count > 0
        drops = tracer.drops()
        assert drops
        assert all(record.event in TERMINAL_EVENTS for record in drops)
        # Every lost probe's fate is a drop record (or it vanished in
        # flight at the horizon, which the idle drain makes impossible).
        uids = probe_uids(tracer, scenario.source, scenario.echo)
        lost_fates = [tracer.fate(uids[n])
                      for n in range(len(trace))
                      if trace.rtts[n] == LOST]
        assert lost_fates
        # NetDyn probes are echoed as a *new* packet at the echo host, so
        # a lost return leg shows the outbound uid terminating 'received'.
        for fate in lost_fates:
            assert fate is not None

    def test_join_stays_index_aligned_under_loss(self):
        # The probe<->lifecycle join is positional: probe n of the trace
        # is the n-th UDP packet created at the source.  Dropped probes
        # must not shift the alignment — every later probe still joins to
        # its own path.
        scenario = build_inria_umd(seed=3)
        tracer = PacketLifecycleTracer(scenario.network)
        scenario.start_traffic()
        trace = run_probe_experiment(scenario.network, scenario.source,
                                     scenario.echo, delta=0.02, count=400,
                                     start_at=10.0)
        tracer.close()
        assert trace.loss_count > 0
        uids = probe_uids(tracer, scenario.source, scenario.echo)
        assert len(uids) == len(trace)
        lost = [n for n in range(len(trace)) if trace.rtts[n] == LOST]
        survivors = [n for n in range(len(trace)) if trace.rtts[n] != LOST]
        for n in lost + survivors[-3:]:
            path = tracer.path(uids[n])
            assert path[0].event == EVENT_CREATED
            assert path[0].time == pytest.approx(trace.send_times[n])
        # A lost probe's outbound uid still has a terminal fate: either a
        # drop on the outbound leg, or 'received' at the echo host when
        # the *return* leg's packet was the one dropped.
        for n in lost:
            fate = tracer.fate(uids[n])
            assert fate is not None
            assert fate.event in TERMINAL_EVENTS
        outbound_drop_uids = {record.uid for record in tracer.drops()}
        returned = [n for n in lost
                    if uids[n] not in outbound_drop_uids]
        dropped_outbound = [n for n in lost
                            if uids[n] in outbound_drop_uids]
        assert len(returned) + len(dropped_outbound) == len(lost)

    def test_kind_filter(self):
        scenario = build_inria_umd(seed=3)
        tracer = PacketLifecycleTracer(scenario.network,
                                       kinds=(KIND_UDP,))
        scenario.start_traffic()
        scenario.sim.run(until=2.0)
        tracer.close()
        assert tracer.records
        assert {record.kind for record in tracer.records} == {KIND_UDP}
