"""Campaign leases: planning, serving, and the warm worker pool.

The campaign dispatcher's execution layer.  :func:`plan_leases` cuts the
grid cells to run into deterministic *leases*, in seed-major order — one
cell each for event grids, batches of one seed's (δ, seed) cells for
analytic grids.
:func:`_serve_lease` runs one lease's cells and returns one payload: the
lease's :class:`~repro.experiments.campaign.CellResult` objects as they
are, plus its replay-memo accounting; :func:`unpack_lease` splits that
payload back into ``(cells, info)``.  Every lease takes that path,
served one of two ways:

* :func:`serve_leases` — in this process, lease after lease (the serial
  campaign);
* :class:`WarmWorkerPool` — a
  :class:`concurrent.futures.ProcessPoolExecutor` of ``workers``
  processes, started for one campaign.  Under ``fork``, preferred where
  available, each worker inherits the parent's already-imported repro
  closure outright.

A pool worker's payload is pickled back to the parent (tens of kilobytes
per cell) together with — when span telemetry is on — the lease's span
records: the payload is the only way a cell's results and telemetry
reach the parent.  Everything in this module is execution mechanics: it
moves results between processes but computes nothing, which is why its
source is not hashed into the cache salt and it is banned from the kernel
call graph alongside the telemetry modules (OBS002).

Staleness: a worker may hold code other than the parent's.  Every lease
request therefore carries the parent's
:func:`repro.experiments.cache.cache_salt` (its view of the code
version), and :func:`_serve_lease` raises :class:`StaleWorkerError` when
the process serving the lease derives a different one, so a stale worker
refuses every lease it is sent.  The salt is memoized per process: the
check is free for serial leases and for ``fork`` workers, which inherit
it; under ``spawn`` each worker derives it once from the sources on disk,
making the check a real cross-process code-version check.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.spans import PHASE_LEASE, SpanTracer, optional_span


class StaleWorkerError(RuntimeError):
    """A lease's worker derives an import-closure salt the parent rejects."""


class LeaseError(RuntimeError):
    """A lease failed inside a worker (carries the worker traceback)."""


#: Leases each worker serves per analytic campaign: enough batches that a
#: slow cell cannot straggle the whole grid, few enough that per-lease IPC
#: stays amortized.
LEASES_PER_WORKER = 4


def plan_leases(cells: Sequence[Tuple[float, int]], workers: int,
                mode: str) -> List[List[Tuple[float, int]]]:
    """Partition grid cells into deterministic lease batches.

    The partition depends only on the arguments — never on timing — so
    the same spec always produces the same leases (the serial==parallel
    byte-identity invariant needs nothing from this, since the merge
    re-orders by grid index, but deterministic leases keep span/timing
    telemetry comparable across runs).  The cells are regrouped
    seed-major — stably, so the δ order within one seed is the grid's —
    because everything a process memoizes is per seed: a process that
    moves past a seed never asks for it again, so it warms each seed's
    event scenario (:func:`~repro.experiments.runner.warm_scenario`) or
    replays its cross traffic
    (:class:`~repro.experiments.fastforward.CrossReplayMemo`) once and
    hits for every further δ.  The cell mode picks the shape:

    * event cells simulate at least the probe train on the event kernel,
      so each lease holds one cell and the tail of the grid stays
      balanced;
    * analytic cells cost milliseconds, so they are cut at a fair share
      that gives every worker about :data:`LEASES_PER_WORKER` leases,
      never letting a lease straddle a seed.
    """
    cells = list(cells)
    groups: Dict[int, List[Tuple[float, int]]] = {}
    for cell in cells:
        groups.setdefault(cell[1], []).append(cell)
    if mode != "analytic":
        return [[cell] for group in groups.values() for cell in group]
    batch_size = math.ceil(len(cells) / (max(1, workers) * LEASES_PER_WORKER))
    return [group[i:i + batch_size]
            for group in groups.values()
            for i in range(0, len(group), batch_size)]


# ----------------------------------------------------------------------
# Lease payloads
# ----------------------------------------------------------------------
def unpack_lease(payload: Dict[str, Any]) -> Tuple[List[Any], Dict[str, Any]]:
    """Split :func:`_serve_lease`'s payload into ``(cells, info)``.

    ``cells`` are the lease's CellResults as the worker built them.
    ``info`` carries the lease's replay-memo ``replay_hits``/
    ``replay_misses`` deltas, its span records (``spans``; empty when
    telemetry is off), and the transport facts ``transport`` (always
    ``"inline"``) and ``shm_bytes`` (always 0).
    """
    # transport/shm_bytes describe nothing since the shared-memory
    # transport went; they stay because the repository benchmark wraps
    # this function and reads both keys.
    return payload["cells"], {
        "transport": "inline", "shm_bytes": 0,
        "replay_hits": payload.get("replay_hits", 0),
        "replay_misses": payload.get("replay_misses", 0),
        "spans": payload.get("spans", [])}


def _serve_lease(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one lease's cells into one payload (a worker's unit of work).

    Serial campaigns call this in-process through :func:`serve_leases`;
    pool workers run it through :func:`_serve_lease_pickled`.  It first
    refuses the lease with :class:`StaleWorkerError` when this process's
    cache salt differs from ``request["salt"]``.
    ``payload["cells"]`` holds the CellResults
    :func:`~repro.experiments.campaign._run_cell` returned, and
    ``payload["pid"]`` names the process that ran them.  Replay-memo
    accounting and span records ride beside the cells, never inside them:
    the parent folds them into its timing.json dispatch block and its span
    files, keeping cell artifacts executor-blind.
    With ``request["spans"]`` set, one tracer times the lease and every
    cell's phases.
    """
    from repro.experiments.cache import cache_salt
    from repro.experiments.campaign import _run_cell
    from repro.experiments.fastforward import process_replay_memo
    salt = cache_salt()
    if salt != request["salt"]:
        raise StaleWorkerError(
            f"worker pid {os.getpid()} derives import-closure salt "
            f"{salt!r} but the parent expects {request['salt']!r}; the "
            "worker is running stale code — rerun on the current sources")
    spec = request["spec"]
    memo = process_replay_memo()
    hits_before, misses_before = memo.counters()
    tracer = SpanTracer() if request["spans"] else None
    with optional_span(tracer, f"lease {request['index']}", PHASE_LEASE):
        cells = [_run_cell(spec, delta, seed, tracer=tracer)
                 for delta, seed in request["cells"]]
    hits, misses = memo.counters()
    payload: Dict[str, Any] = {"cells": cells, "pid": os.getpid(),
                               "replay_hits": hits - hits_before,
                               "replay_misses": misses - misses_before}
    if tracer is not None:
        payload["spans"] = tracer.records
    return payload


def _serve_lease_pickled(request: Dict[str, Any]) -> bytes:
    """A pool worker's task: :func:`_serve_lease`'s payload, pickled.

    :meth:`WarmWorkerPool.run_leases` unpickles it in its own thread.  Left
    to the executor, the payload would be unpickled by the executor's
    result thread, into that thread's malloc arena, which stays resident
    and is inherited, unusable, by every later campaign's forked workers
    (about 5 MB more peak memory per worker on the repository benchmark's
    pooled campaign).  The module attribute ``_serve_lease`` is read in the
    worker, so a wrapper bound to it before the workers fork runs too.
    """
    return pickle.dumps(_serve_lease(request), pickle.HIGHEST_PROTOCOL)


def _lease_request(index: int, cells: Sequence[Tuple[float, int]],
                   spec: Any, spans: bool, salt: str) -> Dict[str, Any]:
    return {"index": index, "spec": spec, "cells": list(cells),
            "spans": spans, "salt": salt}


def serve_leases(spec: Any, leases: Sequence[Sequence[Tuple[float, int]]],
                 spans: bool = False,
                 ) -> Iterator[Tuple[int, List[Any], Dict[str, Any]]]:
    """Serve leases one by one in this process, in lease order.

    The serial twin of :meth:`WarmWorkerPool.run_leases`: every lease goes
    through the same :func:`_serve_lease` and :func:`unpack_lease` a pool
    worker's lease does, and yields the same ``(index, cells, info)``
    triples.
    """
    from repro.experiments.cache import cache_salt
    salt = cache_salt()
    for index, cells in enumerate(leases):
        yield (index, *unpack_lease(_serve_lease(
            _lease_request(index, cells, spec, spans, salt))))


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _start_method() -> str:
    """``fork`` where available, else the platform default."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else mp.get_start_method()


class WarmWorkerPool:
    """Campaign worker processes serving batched cell leases.

    Parameters
    ----------
    workers:
        Worker processes of the underlying
        :class:`~concurrent.futures.ProcessPoolExecutor`.  They start
        when the first lease is submitted, under ``fork`` where available
        (warm-up is then free — the repro closure is inherited already
        imported), else the platform default.  Every lease demands the
        parent's :func:`~repro.experiments.cache.cache_salt` of the
        worker serving it.

    :func:`~repro.experiments.campaign.run_campaign` starts one pool per
    parallel campaign and closes it when the grid is done; the pool is
    also a context manager.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"pool workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: The cache salt every lease demands of its worker, once started.
        self.salt: Optional[str] = None
        #: Pids of the workers that have served a lease, until closed.
        self.worker_pids: List[int] = []

    @property
    def started(self) -> bool:
        return self._executor is not None

    def start(self) -> "WarmWorkerPool":
        """Create the executor (idempotent); workers start with a lease."""
        if self._executor is None:
            # Computed (and memoized) before any worker forks, so fork
            # workers inherit it and checking it costs them nothing.
            from repro.experiments.cache import cache_salt
            self.salt = cache_salt()
            self._executor = ProcessPoolExecutor(
                self.workers, mp_context=mp.get_context(_start_method()))
        return self

    def run_leases(self, spec: Any,
                   leases: Sequence[Sequence[Tuple[float, int]]],
                   spans: bool = False,
                   ) -> Iterator[Tuple[int, List[Any], Dict[str, Any]]]:
        """Submit every lease and yield ``(index, cells, info)`` as they land.

        Completion order, not lease order: the caller's streaming merge
        re-orders by grid index.  A failed lease closes the pool and
        raises :class:`StaleWorkerError` when its worker holds other code,
        :class:`LeaseError` when a worker died mid-lease, and
        :class:`LeaseError` carrying the worker traceback for any other
        exception.  ``info`` is :func:`unpack_lease`'s: the lease's
        worker-side ``replay_hits``/``replay_misses`` deltas (zero for
        event-mode leases) and, with ``spans``, its span records.
        """
        self.start()
        assert self._executor is not None and self.salt is not None
        futures = {
            self._executor.submit(_serve_lease_pickled, _lease_request(
                index, cells, spec, spans, self.salt)): index
            for index, cells in enumerate(leases)}
        for future in as_completed(futures):
            # Popped, so a lease's payload is freed once it is merged.
            index = futures.pop(future)
            try:
                pickled = future.result()
            except StaleWorkerError:
                self.close()
                raise
            except BrokenProcessPool:
                self.close()
                raise LeaseError(
                    "a pool worker exited mid-lease (killed or crashed); "
                    "the pool has been closed") from None
            except Exception as exc:
                self.close()
                # concurrent.futures attaches the worker-side traceback to
                # the exception as its cause, as text in triple quotes.
                remote = str(exc.__cause__ or exc).strip()
                remote = remote.removeprefix('"""').removesuffix('"""')
                raise LeaseError(f"lease {index} failed in worker:\n"
                                 f"{remote.strip()}") from None
            payload = pickle.loads(pickled)
            if payload["pid"] not in self.worker_pids:
                self.worker_pids.append(payload["pid"])
            yield (index, *unpack_lease(payload))

    def close(self) -> None:
        """Cancel unstarted leases and wait for every worker to exit.

        Safe to call twice (and from error paths).
        """
        executor, self._executor = self._executor, None
        self.worker_pids = []
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WarmWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "cold"
        return f"<WarmWorkerPool workers={self.workers} {state}>"
