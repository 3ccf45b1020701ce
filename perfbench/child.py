"""One benchmark repetition, in a fresh interpreter.

Started by ``run.py`` with one JSON argument::

    {"root": ..., "workload": ..., "seed": ..., "kind": "setup"|"plain"|
     "traced", "spawned": <time.monotonic() just before the spawn>,
     "workdir": ...}

``setup_s`` runs from the spawn until the program is ready: the ``repro``
imports plus the cache-salt derivation, rescaled to the nominal host
speed by the reference probe that follows it.  A ``setup`` repetition stops
there; ``plain`` and ``traced`` ones go on to run the workload's operation
(``traced`` with the layer probes installed).  The last stdout line is one
JSON record; a zero-call guard violation exits with status 3 instead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path


def _worker_peaks(peaks: list) -> None:
    """Sample each pool's workers' peak RSS just before the pool closes."""
    from repro.experiments.pool import WarmWorkerPool
    close = WarmWorkerPool.close

    def sampling_close(self) -> None:
        total = 0
        for pid in self.worker_pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        if self.worker_pids:
            peaks.append(total)
        close(self)
    WarmWorkerPool.close = sampling_close


def main() -> int:
    request = json.loads(sys.argv[1])
    root = Path(request["root"])
    sys.path.insert(0, str(root / "src"))
    import time

    import repro
    if Path(repro.__file__).resolve().parent != (root / "src" / "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"the checkout", file=sys.stderr)
        return 2
    import repro.cli  # noqa: F401  (what every entry point loads)
    import repro.experiments.fastforward  # noqa: F401
    from repro.experiments import cache
    from repro.obs.bench import machine_info

    import probes
    import workloads

    workload = request["workload"]
    recorder = None
    if request["kind"] == "traced":
        recorder = probes.Recorder(workload)
        probes.install(recorder)
    salt = cache.cache_salt()
    setup_wall_s = time.monotonic() - request["spawned"]
    # Rescaled to the nominal host speed, like the operations' times.
    record = {"setup_wall_s": setup_wall_s,
              "setup_s": workloads.normalized(
                  setup_wall_s, workloads.reference_seconds(), [])}
    if request["kind"] == "setup":
        print(json.dumps(record))
        return 0

    worker_peaks: list = []
    _worker_peaks(worker_peaks)
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    outcome = workloads.run(workload, request["seed"],
                            Path(request["workdir"]), golden, recorder)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(
        wall_s=outcome["wall_s"], warm_wall_s=outcome["warm_wall_s"],
        norm_wall_s=outcome["norm_wall_s"],
        warm_norm_wall_s=outcome["warm_norm_wall_s"],
        peak_rss_mb=(self_kb + max(worker_peaks, default=0)) / 1024.0,
        attempted=outcome["attempted"], failed=outcome["failed"],
        machine=dict(machine_info(), nproc=len(os.sched_getaffinity(0))),
        facts=dict(outcome["facts"], salt=salt))
    if recorder is not None:
        spans = recorder.drain()
        missing = probes.zero_call_violations(workload, spans)
        if missing:
            print(f"perfbench: zero-call guard: {', '.join(missing)} "
                  f"recorded no calls on {workload} (a wrapper was "
                  f"bypassed or the layer no longer runs)", file=sys.stderr)
            return 3
        traced_root = "op.warm" if workload == "paper_figures" else "op.cold"
        record["layers"] = probes.layer_metrics(
            spans, outcome["facts"], workload, traced_root)
        record["spans"] = spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
