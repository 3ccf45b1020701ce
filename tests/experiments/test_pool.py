"""Campaign leases: planning, payloads, salt checks, warm-pool serving.

The pool is pure transport — it moves CellResults between processes but
computes nothing — so these tests pin four things: the lease partition
is deterministic, the lease payload reproduces CellResults exactly, a
stale worker refuses every lease, and no failure leaves a worker behind.
"""

import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import cache as cache_module
from repro.experiments import campaign as campaign_module
from repro.experiments import pool as pool_module
from repro.experiments.campaign import CampaignSpec, CellResult, _run_cell, \
    cell_key, run_campaign
from repro.experiments.config import PAPER_DELTAS
from repro.experiments.pool import (
    LEASES_PER_WORKER,
    LeaseError,
    StaleWorkerError,
    WarmWorkerPool,
    plan_leases,
    serve_leases,
    unpack_lease,
)
from repro.netdyn.trace import ProbeTrace


def analytic_spec(**kwargs):
    defaults = dict(deltas=(0.05, 0.1), seeds=(1, 2), duration=5.0,
                    scenario_kwargs={"utilization_fwd": 0.3,
                                     "utilization_rev": 0.3},
                    mode="analytic")
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


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
        assert plan_leases([], workers=4, mode="event") == []
        assert plan_leases([], workers=4, mode="analytic") == []

    def test_event_leases_hold_one_cell(self):
        # Event cells simulate at least the 30 s warm-up: one per lease,
        # in grid order, whatever the grid size or worker count.
        for size in (1, 7, 24):
            cells = [(0.1, s) for s in range(size)]
            for workers in (1, 2, 4):
                assert plan_leases(cells, workers, "event") \
                    == [[cell] for cell in cells]

    def test_deterministic(self):
        cells = [(0.05, s) for s in range(16)]
        for mode in ("event", "analytic"):
            assert plan_leases(cells, 2, mode) == plan_leases(cells, 2, mode)

    def test_auto_tune_fair_share(self):
        # 16 cells of one seed over 2 workers x LEASES_PER_WORKER leases
        # -> batch 2.
        cells = [(0.01 * d, 1) for d in range(1, 17)]
        leases = plan_leases(cells, workers=2, mode="analytic")
        assert all(len(lease) == 2 for lease in leases)
        assert [cell for lease in leases for cell in lease] == cells

    def test_auto_tune_shrinks_for_expensive_cells(self):
        # Event cells are the expensive ones: a grid whose analytic fair
        # share is 4 still leases them one at a time.
        cells = [(0.01 * d, 1) for d in range(1, 17)]
        assert {len(lease) for lease
                in plan_leases(cells, workers=1, mode="analytic")} == {4}
        assert {len(lease) for lease
                in plan_leases(cells, workers=1, mode="event")} == {1}

    def test_cheap_cells_keep_fair_share(self):
        # However long the analytic cells run, the fair share alone
        # sizes their leases.
        cells = [(0.01 * d, 1) for d in range(1, 25)]
        leases = plan_leases(cells, workers=1, mode="analytic")
        assert [len(lease) for lease in leases] == [6] * 4

    def test_covers_grid_for_any_batch_size(self):
        for size in (1, 7, 11, 50):
            cells = [(0.1 * (s // 5 + 1), s % 5) for s in range(size)]
            for workers in (1, 3):
                for mode in ("event", "analytic"):
                    leases = plan_leases(cells, workers, mode)
                    flat = [cell for lease in leases for cell in lease]
                    assert sorted(flat) == sorted(cells)
                    assert len(flat) == len(cells)
                    assert all(lease for lease in leases)

    @pytest.mark.parametrize("seeds, workers", [(8, 1), (16, 2)])
    def test_benchmark_campaign_leases(self, seeds, workers):
        # The repository benchmark's two campaign grids (the paper's six
        # deltas x 8 seeds on 1 worker, x 16 seeds on 2 workers): one
        # lease of six cells per seed.
        spec = CampaignSpec(deltas=PAPER_DELTAS,
                            seeds=list(range(1, 1 + seeds)),
                            duration=120.0, mode="analytic")
        leases = plan_leases(spec.cells(), workers, spec.mode)
        assert leases == [[(delta, seed) for delta in PAPER_DELTAS]
                          for seed in spec.seeds]


class TestSeedAffinity:
    #: δ-major grid order, the shape CampaignSpec.cells() produces.
    GRID = [(delta, seed) for delta in (0.05, 0.1, 0.2) for seed in (1, 2)]

    #: A 24-cell grid one worker leases 6 cells at a time (fair share).
    WIDE = [(delta, seed) for delta in (0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
            for seed in (1, 2, 3, 4)]

    def test_regroups_seed_major_preserving_delta_order(self):
        # 3 deltas x 4 seeds on 1 worker: fair share 3, so every seed's
        # three deltas make one lease.
        grid = [(delta, seed) for delta in (0.05, 0.1, 0.2)
                for seed in (1, 2, 3, 4)]
        leases = plan_leases(grid, workers=1, mode="analytic")
        assert leases == [[(0.05, seed), (0.1, seed), (0.2, seed)]
                          for seed in (1, 2, 3, 4)]

    def test_lease_never_straddles_seeds(self):
        # Batch 2 (fair share of 6 cells on 1 worker) on 3 deltas per
        # seed: a seed's third cell gets a lease of its own rather than
        # joining the next seed's.
        leases = plan_leases(self.GRID, workers=1, mode="analytic")
        for lease in leases:
            assert len({seed for _, seed in lease}) == 1
        assert leases == [[(0.05, 1), (0.1, 1)], [(0.2, 1)],
                          [(0.05, 2), (0.1, 2)], [(0.2, 2)]]
        # Batch 6 by fair share (24 cells, 1 worker) on 6 deltas per seed:
        # one lease per seed.
        assert len(self.WIDE) // LEASES_PER_WORKER == 6
        wide = plan_leases(self.WIDE, workers=1, mode="analytic")
        assert [len(lease) for lease in wide] == [6] * 4
        # Batch 3 on 2 workers: two leases per seed, none straddling.
        wide = plan_leases(self.WIDE, workers=2, mode="analytic")
        assert [len(lease) for lease in wide] == [3] * 8
        for lease in wide:
            assert len({seed for _, seed in lease}) == 1

    def test_covers_grid_exactly(self):
        for grid in (self.GRID, self.WIDE):
            for workers in (1, 2, 4):
                leases = plan_leases(grid, workers=workers, mode="analytic")
                flat = [cell for lease in leases for cell in lease]
                assert sorted(flat) == sorted(grid)
                assert len(flat) == len(grid)

    def test_deterministic(self):
        assert plan_leases(self.GRID, 2, "analytic") \
            == plan_leases(self.GRID, 2, "analytic")


class TestLeaseTransports:
    def test_inline_round_trip(self):
        originals = [make_cell(seed=3), make_cell(seed=4, n=33)]
        # Keys out of sorted order: insertion order must survive pickling.
        for cell in originals:
            cell.metrics = dict(reversed(list(cell.metrics.items())))
            cell.queue_stats = {"z->y": {"drops": 2.0},
                                **cell.queue_stats}
        # Through pickle, as over a worker pipe.
        payload = pickle.loads(pickle.dumps({"cells": originals}))
        cells, info = unpack_lease(payload)
        assert info == {"transport": "inline", "shm_bytes": 0,
                        "replay_hits": 0, "replay_misses": 0, "spans": []}
        assert_cells_equal(cells, originals)
        for got, want in zip(cells, originals):
            assert list(got.queue_stats) == list(want.queue_stats)

    def test_empty_lease(self):
        cells, _ = unpack_lease({"cells": []})
        assert cells == []

    def test_serve_leases_yields_the_run_cell_objects(self, monkeypatch):
        returned = []

        def fake_run_cell(spec, delta, seed, tracer=None):
            cell = make_cell(delta=delta, seed=seed)
            returned.append(cell)
            return cell

        monkeypatch.setattr(campaign_module, "_run_cell", fake_run_cell)
        spec = analytic_spec()
        leases = [[(0.05, 1), (0.1, 1)], [(0.05, 2)]]
        served = list(serve_leases(spec, leases))
        assert [index for index, _, _ in served] == [0, 1]
        cells = [cell for _, lease_cells, _ in served
                 for cell in lease_cells]
        assert len(cells) == len(returned) == 3
        assert all(got is want for got, want in zip(cells, returned))


class TestWarmWorkerPool:
    def test_worker_count_validation(self):
        with pytest.raises(ConfigurationError):
            WarmWorkerPool(0)

    def test_lease_accepts_matching_salt(self):
        spec = analytic_spec()
        leases = plan_leases(spec.cells(), workers=2, mode=spec.mode)
        with WarmWorkerPool(2) as pool:
            assert pool.started
            assert pool.salt == cache_module.cache_salt()
            served = list(pool.run_leases(spec, leases))
            children = {child.pid for child in mp.active_children()}
            assert 1 <= len(pool.worker_pids) <= 2
            assert set(pool.worker_pids) <= children
        assert len(served) == len(leases)
        assert not pool.started
        assert pool.worker_pids == []

    @pytest.mark.skipif(pool_module._start_method() != "fork",
                        reason="the patched salt reaches workers only by fork")
    def test_stale_worker_refuses_every_lease(self, monkeypatch):
        # A worker whose view of the code differs from the parent's: the
        # salt reads differently in any process but this one.
        parent_pid = os.getpid()
        real_salt = cache_module.cache_salt()

        def salt_by_process():
            if os.getpid() == parent_pid:
                return real_salt
            return "repro-cell-v2-stale"

        monkeypatch.setattr(cache_module, "cache_salt", salt_by_process)
        spec = analytic_spec()
        pool = WarmWorkerPool(1)
        with pytest.raises(StaleWorkerError, match="stale"):
            list(pool.run_leases(spec, [[cell] for cell in spec.cells()]))
        assert not pool.started  # refused pool fully torn down
        assert mp.active_children() == []
        with pytest.raises(StaleWorkerError, match="stale"):
            run_campaign(spec, workers=2)
        assert mp.active_children() == []

    def test_serial_leases_check_the_salt(self):
        spec = analytic_spec(deltas=(0.1,), seeds=(1,))
        request = pool_module._lease_request(0, spec.cells(), spec, False,
                                             "repro-cell-v2-stale")
        with pytest.raises(StaleWorkerError, match="stale"):
            pool_module._serve_lease(request)

    def test_start_is_idempotent(self):
        with WarmWorkerPool(1) as pool:
            pids = pool.worker_pids
            pool.start()
            assert pool.worker_pids == pids

    def test_close_is_idempotent(self):
        pool = WarmWorkerPool(1).start()
        pool.close()
        pool.close()

    def test_serves_leases_matching_serial_results(self):
        spec = analytic_spec()
        grid = spec.cells()
        leases = plan_leases(grid, workers=2, mode=spec.mode)
        assert len(leases) == len(grid)  # one cell per lease
        with WarmWorkerPool(2) as pool:
            served = {}
            for index, cells, info in pool.run_leases(spec, leases):
                served[index] = cells
                assert info["transport"] == "inline"
        assert sorted(served) == list(range(len(leases)))
        flat = [cell for index in sorted(served)
                for cell in served[index]]
        reference = [_run_cell(spec, delta, seed)
                     for lease in leases for delta, seed in lease]
        assert_cells_equal(flat, reference, compare_wall=False)

    def test_spans_ride_the_lease_payload(self):
        spec = analytic_spec(deltas=(0.1,))
        leases = plan_leases(spec.cells(), workers=2, mode=spec.mode)
        with WarmWorkerPool(2) as pool:
            shipped = {index: info["spans"] for index, _, info
                       in pool.run_leases(spec, leases, spans=True)}
            pids = set(pool.worker_pids)
        assert pids and os.getpid() not in pids
        for index, (cell,) in enumerate(leases):
            spans = shipped[index]
            assert {span.pid for span in spans} <= pids
            names = {span.name for span in spans}
            assert {f"lease {index}", f"cell {cell_key(*cell)}",
                    "sim"} <= names

    def test_worker_failure_raises_lease_error_and_closes(self):
        spec = analytic_spec()
        pool = WarmWorkerPool(1).start()
        with pytest.raises(LeaseError, match="lease 0 failed") as raised:
            # delta <= 0 fails config validation inside the worker.
            list(pool.run_leases(spec, [[(-1.0, 1)]]))
        assert not pool.started
        assert mp.active_children() == []
        # The message carries the worker-side traceback.
        message = str(raised.value)
        assert message.startswith("lease 0 failed in worker:\nTraceback")
        assert "_serve_lease" in message
        assert "ConfigurationError: delta must be positive" in message


def _fail_in_worker_for_seed(seed, fail):
    """A ``_run_cell`` that calls ``fail()`` in a worker running ``seed``."""
    run_cell = campaign_module._run_cell
    parent_pid = os.getpid()

    def run_cell_or_fail(spec, delta, cell_seed, tracer=None):
        if cell_seed == seed and os.getpid() != parent_pid:
            fail()
        return run_cell(spec, delta, cell_seed, tracer=tracer)
    return run_cell_or_fail


def _raise_value_error():
    raise ValueError("cell refused")


@pytest.mark.skipif(pool_module._start_method() != "fork",
                    reason="the patched _run_cell reaches workers only by fork")
class TestNoWorkerOutlivesTheCampaign:
    """Every pooled campaign leaves no child process, however it ends."""

    def test_clean_campaign(self):
        run_campaign(analytic_spec(), workers=2)
        assert mp.active_children() == []

    def test_killed_worker_fails_loudly(self, monkeypatch):
        # Patched before the pool forks, so only the workers inherit it.
        monkeypatch.setattr(campaign_module, "_run_cell",
                            _fail_in_worker_for_seed(2, lambda: os._exit(1)))
        with pytest.raises(LeaseError, match="exited mid-lease"):
            run_campaign(analytic_spec(), workers=2)
        assert mp.active_children() == []

    def test_failing_lease(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "_run_cell",
                            _fail_in_worker_for_seed(2, _raise_value_error))
        with pytest.raises(LeaseError, match="ValueError: cell refused"):
            run_campaign(analytic_spec(), workers=2)
        assert mp.active_children() == []
