"""Campaign leases: planning, payloads, handshake, warm-pool serving.

The pool is pure transport — it moves CellResults between processes but
computes nothing — so these tests pin three things: the lease partition
is deterministic, the lease payload reproduces CellResults exactly, and
the salt handshake refuses stale workers.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignSpec, CellResult, _run_cell, \
    cell_key
from repro.experiments.pool import (
    LeaseError,
    StaleWorkerError,
    WarmWorkerPool,
    pack_lease,
    plan_leases,
    unpack_lease,
)
from repro.netdyn.trace import ProbeTrace

#: Injected handshake salt: skips the (slow) source analysis in tests
#: that only exercise the transport, not the staleness check itself.
TEST_SALT = "repro-cell-v2-test"


def analytic_spec(**kwargs):
    defaults = dict(deltas=(0.05, 0.1), seeds=(1, 2), duration=5.0,
                    scenario_kwargs={"utilization_fwd": 0.3,
                                     "utilization_rev": 0.3},
                    mode="analytic")
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def fast_pool(workers=2, **kwargs):
    kwargs.setdefault("expected_salt", TEST_SALT)
    kwargs.setdefault("worker_salt", TEST_SALT)
    return WarmWorkerPool(workers, **kwargs)


def make_cell(delta=0.05, seed=1, n=16):
    rng = np.random.default_rng(seed)
    trace = ProbeTrace(delta=delta,
                       send_times=np.arange(n) * delta,
                       rtts=rng.uniform(0.1, 0.2, size=n),
                       meta={"seed": seed, "scenario": "test"})
    return CellResult(delta=delta, seed=seed, trace=trace,
                      queue_stats={"a->b": {"drops": 1.0, "arrivals": 9.0}},
                      metrics={"ulp": 0.1, "clp": 0.2, "mean_rtt": 0.15},
                      wall_seconds=0.5)


def assert_cells_equal(rebuilt, originals, compare_wall=True):
    # ``compare_wall=False`` when the two sides are independent *runs*:
    # wall seconds are host bookkeeping, not a deterministic output.
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.delta == want.delta
        assert got.seed == want.seed
        assert got.queue_stats == want.queue_stats
        # dict order must survive the transport (byte-identity depends
        # on it downstream), not just dict equality.
        assert list(got.metrics) == list(want.metrics)
        assert got.metrics == want.metrics
        if compare_wall:
            assert got.wall_seconds == want.wall_seconds
        assert np.array_equal(got.trace.send_times, want.trace.send_times)
        assert np.array_equal(got.trace.rtts, want.trace.rtts)
        assert got.trace.meta == want.trace.meta
        assert got.trace.delta == want.trace.delta


class TestPlanLeases:
    def test_empty_grid(self):
        assert plan_leases([], workers=4) == []

    def test_explicit_batch_size_partitions_contiguously(self):
        cells = [(0.1, s) for s in range(7)]
        leases = plan_leases(cells, workers=2, batch_size=3)
        assert leases == [cells[0:3], cells[3:6], cells[6:7]]

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            plan_leases([(0.1, 1)], workers=1, batch_size=0)

    def test_deterministic(self):
        cells = [(0.05, s) for s in range(16)]
        assert plan_leases(cells, 2) == plan_leases(cells, 2)

    def test_auto_tune_fair_share(self):
        # 16 cells over 2 workers x LEASES_PER_WORKER leases -> batch 2.
        cells = [(0.05, s) for s in range(16)]
        leases = plan_leases(cells, workers=2)
        assert all(len(lease) == 2 for lease in leases)
        assert [cell for lease in leases for cell in lease] == cells

    def test_auto_tune_shrinks_for_expensive_cells(self):
        # A cell estimated above TARGET_LEASE_SECONDS forces batch 1.
        cells = [(0.05, s) for s in range(16)]
        leases = plan_leases(cells, workers=2, cell_seconds=5.0)
        assert all(len(lease) == 1 for lease in leases)

    def test_cheap_cells_keep_fair_share(self):
        cells = [(0.05, s) for s in range(16)]
        assert plan_leases(cells, workers=2, cell_seconds=1e-3) \
            == plan_leases(cells, workers=2)

    def test_covers_grid_for_any_batch_size(self):
        cells = [(0.1, s) for s in range(11)]
        for batch in (1, 2, 3, 5, 11, 50):
            leases = plan_leases(cells, workers=3, batch_size=batch)
            assert [cell for lease in leases for cell in lease] == cells


class TestSeedAffinity:
    #: δ-major grid order, the shape CampaignSpec.cells() produces.
    GRID = [(delta, seed) for delta in (0.05, 0.1, 0.2) for seed in (1, 2)]

    def test_regroups_seed_major_preserving_delta_order(self):
        leases = plan_leases(self.GRID, workers=1, batch_size=3,
                             affinity="seed")
        assert leases == [[(0.05, 1), (0.1, 1), (0.2, 1)],
                          [(0.05, 2), (0.1, 2), (0.2, 2)]]

    def test_lease_never_straddles_seeds(self):
        leases = plan_leases(self.GRID, workers=1, batch_size=2,
                             affinity="seed")
        for lease in leases:
            assert len({seed for _, seed in lease}) == 1
        assert leases == [[(0.05, 1), (0.1, 1)], [(0.2, 1)],
                          [(0.05, 2), (0.1, 2)], [(0.2, 2)]]

    def test_covers_grid_exactly(self):
        for batch in (1, 2, 3, 7):
            leases = plan_leases(self.GRID, workers=2, batch_size=batch,
                                 affinity="seed")
            flat = [cell for lease in leases for cell in lease]
            assert sorted(flat) == sorted(self.GRID)
            assert len(flat) == len(self.GRID)

    def test_deterministic(self):
        assert plan_leases(self.GRID, 2, affinity="seed") \
            == plan_leases(self.GRID, 2, affinity="seed")

    def test_none_affinity_unchanged(self):
        assert plan_leases(self.GRID, 2, batch_size=2, affinity=None) \
            == plan_leases(self.GRID, 2, batch_size=2)

    def test_unknown_affinity_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_leases(self.GRID, 2, affinity="delta")


class TestLeaseTransports:
    def test_inline_round_trip(self):
        originals = [make_cell(seed=3), make_cell(seed=4, n=33)]
        # Through pickle, as over a worker pipe.
        payload = pickle.loads(pickle.dumps(pack_lease(originals)))
        cells, info = unpack_lease(payload)
        assert info == {"transport": "inline", "shm_bytes": 0,
                        "replay_hits": 0, "replay_misses": 0, "spans": []}
        assert_cells_equal(cells, originals)

    def test_empty_lease(self):
        cells, _ = unpack_lease(pack_lease([]))
        assert cells == []


class TestWarmWorkerPool:
    def test_worker_count_validation(self):
        with pytest.raises(ConfigurationError):
            WarmWorkerPool(0)

    def test_handshake_accepts_matching_salt(self):
        with fast_pool(workers=2) as pool:
            assert pool.started
            assert pool.salt == TEST_SALT
            assert len(pool.worker_pids) == 2
        assert not pool.started

    def test_handshake_refuses_stale_worker(self):
        pool = fast_pool(workers=1, worker_salt="repro-cell-v2-stale")
        with pytest.raises(StaleWorkerError, match="stale"):
            pool.start()
        assert not pool.started  # refused pool fully torn down

    def test_start_is_idempotent(self):
        with fast_pool(workers=1) as pool:
            pids = pool.worker_pids
            pool.start()
            assert pool.worker_pids == pids

    def test_close_is_idempotent(self):
        pool = fast_pool(workers=1).start()
        pool.close()
        pool.close()

    def test_serves_leases_matching_serial_results(self):
        spec = analytic_spec()
        grid = spec.cells()
        leases = plan_leases(grid, workers=2, batch_size=1)
        with fast_pool(workers=2) as pool:
            served = {}
            for index, cells, info in pool.run_leases(spec, leases):
                served[index] = cells
                assert info["transport"] == "inline"
        assert sorted(served) == list(range(len(leases)))
        flat = [cell for index in sorted(served)
                for cell in served[index]]
        reference = [_run_cell(spec, delta, seed) for delta, seed in grid]
        assert_cells_equal(flat, reference, compare_wall=False)

    def test_spans_ride_the_lease_payload(self):
        spec = analytic_spec(deltas=(0.1,))
        leases = plan_leases(spec.cells(), workers=2, batch_size=1)
        with fast_pool(workers=2) as pool:
            pids = set(pool.worker_pids)
            shipped = {index: info["spans"] for index, _, info
                       in pool.run_leases(spec, leases, spans=True)}
        for index, (cell,) in enumerate(leases):
            spans = shipped[index]
            assert {span.pid for span in spans} <= pids
            names = {span.name for span in spans}
            assert {f"lease {index}", f"cell {cell_key(*cell)}",
                    "sim"} <= names

    def test_worker_failure_raises_lease_error_and_closes(self):
        spec = analytic_spec()
        pool = fast_pool(workers=1).start()
        with pytest.raises(LeaseError, match="lease 0 failed"):
            # delta <= 0 fails config validation inside the worker.
            list(pool.run_leases(spec, [[(-1.0, 1)]]))
        assert not pool.started
