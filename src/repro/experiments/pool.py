"""Campaign leases: planning, serving, and the warm worker pool.

The campaign dispatcher's execution layer.  :func:`plan_leases` cuts the
grid cells to run into deterministic *leases* — one cell each for event
grids, seed-major batches of (δ, seed) cells for analytic grids.
:func:`_serve_lease` runs one lease's cells and returns one payload: the
lease's :class:`~repro.experiments.campaign.CellResult` objects as they
are, plus its replay-memo accounting; :func:`unpack_lease` splits that
payload back into ``(cells, info)``.  Every lease takes that path,
served one of two ways:

* :func:`serve_leases` — in this process, lease after lease (the serial
  campaign);
* :class:`WarmWorkerPool` — ``workers`` long-lived processes.  Each
  worker imports the repro closure once (under ``fork``, preferred where
  available, it inherits the parent's already-imported modules
  outright), reports its import-closure cache salt in a handshake, and
  then serves leases sent down its pipe until the pool is closed.

A pool worker's payload is pickled through its pipe (tens of kilobytes
per cell) together with — when span telemetry is on — the lease's span
records: the payload is the only way a cell's results and telemetry
reach the parent.  Everything in this module is execution mechanics: it
moves results between processes but computes nothing, which is why its
source is not hashed into the cache salt and it is banned from the kernel
call graph alongside the telemetry modules (OBS002).

Staleness: a long-lived pool may outlive a code edit.  Workers therefore
report :func:`repro.experiments.cache.cache_salt` (their view of the
code version) when they start; the parent refuses the pool
with :class:`StaleWorkerError` when any worker's salt differs from its
own.  Under ``fork`` the check is cheap (the memoized salt is inherited);
under ``spawn`` each worker derives it from the sources on disk, making
the handshake a real cross-process code-version check.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.spans import PHASE_LEASE, SpanTracer, optional_span


class StaleWorkerError(RuntimeError):
    """A pool worker reported an import-closure salt the parent rejects."""


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
    telemetry comparable across runs).  The cell mode picks the shape:

    * event cells simulate at least the warm-up on the event kernel, so
      each lease holds one cell and the tail of the grid stays balanced;
    * analytic cells cost milliseconds, so they are regrouped seed-major
      — stably, so the δ order within one seed is the grid's — and cut at
      a fair share that gives every worker about
      :data:`LEASES_PER_WORKER` leases, never letting a lease straddle a
      seed.  A warm worker serving one lease then replays each seed's
      cross traffic once and hits its in-process
      :class:`~repro.experiments.fastforward.CrossReplayMemo` for every
      further δ of that seed.
    """
    cells = list(cells)
    if mode != "analytic":
        return [[cell] for cell in cells]
    batch_size = math.ceil(len(cells) / (max(1, workers) * LEASES_PER_WORKER))
    groups: Dict[int, List[Tuple[float, int]]] = {}
    for cell in cells:
        groups.setdefault(cell[1], []).append(cell)
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


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Serve leases until told to stop (runs in the worker process).

    The first message out is the handshake: this worker's import-closure
    cache salt.  Under ``fork`` the memoized salt is inherited from the
    parent; under ``spawn`` it is derived fresh from the sources on disk.
    """
    from repro.experiments.cache import cache_salt
    conn.send(("hello", -1, {"salt": cache_salt(), "pid": os.getpid()}))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # parent went away; nothing left to serve
        if message[0] == "stop":
            return
        request = message[1]
        try:
            payload = _serve_lease(request)
        except BaseException:
            conn.send(("error", request["index"], traceback.format_exc()))
            continue
        conn.send(("result", request["index"], payload))


def _serve_lease(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one lease's cells into one payload (a worker's unit of work).

    Serial campaigns call this in-process through :func:`serve_leases`;
    pool workers call it from :func:`_worker_main`.  ``payload["cells"]``
    holds the CellResults :func:`~repro.experiments.campaign._run_cell`
    returned.  Replay-memo accounting and span records ride beside the
    cells, never inside them: the parent folds them into its timing.json
    dispatch block and its span files, keeping cell artifacts
    executor-blind.
    With ``request["spans"]`` set, one tracer times the lease and every
    cell's phases.
    """
    from repro.experiments.campaign import _run_cell
    from repro.experiments.fastforward import process_replay_memo
    spec = request["spec"]
    memo = process_replay_memo()
    hits_before, misses_before = memo.counters()
    tracer = SpanTracer() if request["spans"] else None
    with optional_span(tracer, f"lease {request['index']}", PHASE_LEASE):
        cells = [_run_cell(spec, delta, seed, tracer=tracer)
                 for delta, seed in request["cells"]]
    hits, misses = memo.counters()
    payload: Dict[str, Any] = {"cells": cells,
                               "replay_hits": hits - hits_before,
                               "replay_misses": misses - misses_before}
    if tracer is not None:
        payload["spans"] = tracer.records
    return payload


def _lease_request(index: int, cells: Sequence[Tuple[float, int]],
                   spec: Any, spans: bool) -> Dict[str, Any]:
    return {"index": index, "spec": spec, "cells": list(cells),
            "spans": spans}


def serve_leases(spec: Any, leases: Sequence[Sequence[Tuple[float, int]]],
                 spans: bool = False,
                 ) -> Iterator[Tuple[int, List[Any], Dict[str, Any]]]:
    """Serve leases one by one in this process, in lease order.

    The serial twin of :meth:`WarmWorkerPool.run_leases`: every lease goes
    through the same :func:`_serve_lease` and :func:`unpack_lease` a pool
    worker's lease does, minus the pipe, and yields the same
    ``(index, cells, info)`` triples.
    """
    for index, cells in enumerate(leases):
        yield (index, *unpack_lease(_serve_lease(
            _lease_request(index, cells, spec, spans))))


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _start_method() -> str:
    """``fork`` where available, else the platform default."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else mp.get_start_method()


class WarmWorkerPool:
    """Persistent campaign workers serving batched cell leases.

    Parameters
    ----------
    workers:
        Long-lived worker processes to keep.  They start under ``fork``
        where available (warm-up is then free — the repro closure is
        inherited already imported), else the platform default.  The
        parent demands its own
        :func:`~repro.experiments.cache.cache_salt` in every worker's
        handshake.

    :func:`~repro.experiments.campaign.run_campaign` starts one pool per
    parallel campaign and closes it when the grid is done; the pool is
    also a context manager.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"pool workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        #: Verified handshake salt once started.
        self.salt: Optional[str] = None
        self.worker_pids: List[int] = []

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> "WarmWorkerPool":
        """Launch the workers and verify the salt handshake (idempotent)."""
        if self._procs:
            return self
        # Computed (and memoized) before forking, so fork workers inherit
        # it and the handshake costs nothing.
        from repro.experiments.cache import cache_salt
        expected = cache_salt()
        context = mp.get_context(_start_method())
        conns: List[Any] = []
        procs: List[mp.process.BaseProcess] = []
        try:
            for _ in range(self.workers):
                parent_end, child_end = context.Pipe()
                proc = context.Process(target=_worker_main,
                                       args=(child_end,), daemon=True)
                proc.start()
                child_end.close()
                conns.append(parent_end)
                procs.append(proc)
            pids = []
            for conn in conns:
                kind, _, hello = conn.recv()
                if kind != "hello":
                    raise LeaseError(
                        f"expected worker handshake, got {kind!r}")
                if hello["salt"] != expected:
                    raise StaleWorkerError(
                        f"worker pid {hello['pid']} reports import-closure "
                        f"salt {hello['salt']!r} but the parent expects "
                        f"{expected!r}; the worker is running stale code — "
                        "restart the pool on the current sources")
                pids.append(hello["pid"])
        except BaseException:
            _teardown(conns, procs)
            raise
        self._conns = conns
        self._procs = procs
        self.worker_pids = pids
        self.salt = expected
        return self

    def run_leases(self, spec: Any,
                   leases: Sequence[Sequence[Tuple[float, int]]],
                   spans: bool = False,
                   ) -> Iterator[Tuple[int, List[Any], Dict[str, Any]]]:
        """Dispatch leases and yield ``(index, cells, info)`` as they land.

        Completion order, not lease order: the caller's streaming merge
        re-orders by grid index.  Every worker holds at most one lease;
        finishing one immediately earns the next, so the pool stays busy
        without any global barrier.  A worker error or crash closes the
        pool (its pipes are in an unknown state) and raises
        :class:`LeaseError`.  ``info`` is :func:`unpack_lease`'s: the
        lease's worker-side ``replay_hits``/``replay_misses`` deltas (zero
        for event-mode leases) and, with ``spans``, its span records.
        """
        self.start()
        pending = deque(enumerate(leases))
        active = self._conns[:len(pending)]
        for conn in active:
            self._dispatch(conn, pending.popleft(), spec, spans)
        while active:
            for conn in _wait_connections(active):
                try:
                    kind, index, payload = conn.recv()
                except EOFError:
                    self.close()
                    raise LeaseError(
                        "a pool worker exited mid-lease (killed or "
                        "crashed); the pool has been closed")
                if kind == "error":
                    self.close()
                    raise LeaseError(
                        f"lease {index} failed in worker:\n{payload}")
                cells, info = unpack_lease(payload)
                if pending:
                    self._dispatch(conn, pending.popleft(), spec, spans)
                else:
                    active.remove(conn)
                yield index, cells, info

    def _dispatch(self, conn, numbered_lease, spec, spans) -> None:
        conn.send(("lease", _lease_request(*numbered_lease, spec, spans)))

    def close(self) -> None:
        """Stop the workers; safe to call twice (and from error paths)."""
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        self.worker_pids = []
        _teardown(conns, procs)

    def __enter__(self) -> "WarmWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "cold"
        return f"<WarmWorkerPool workers={self.workers} {state}>"


def _teardown(conns: List[Any], procs: List[mp.process.BaseProcess]) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=5.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - stuck-worker backstop
            proc.terminate()
            proc.join(timeout=5.0)
