"""SHA-256 digests of a short traced run, pinned across commits.

A seed-1 INRIA-UMd run at δ = 50 ms for 5 s, with kernel and
packet-lifecycle tracing on, writes its hop records and its kernel event
records as JSONL.  ``tests/data/hop_digests.json`` holds the SHA-256 of
the hop file, and of the event file with the wall-clock ``wall_seconds``
field dropped from every row (the only field that varies between runs);
``tests/obs/test_hop_digests.py`` recomputes both.  Any change to which
milestones an observer hears, their order, their queue occupancy, or the
event schedule shows up as a digest change.

Regenerate the table (from the repository root) only for a deliberate
change of that output, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.obs.hop_digests
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_observed_experiment
from repro.obs.export import write_jsonl

CONFIG = ExperimentConfig(delta=0.05, duration=5.0, seed=1)
TABLE = Path(__file__).resolve().parents[1] / "data" / "hop_digests.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def traced_digests(directory: Path) -> Dict[str, str]:
    """Run the traced cell, write its JSONL into ``directory``, digest it."""
    _, _, obs = run_observed_experiment(CONFIG, trace=True)
    assert obs.kernel is not None and obs.lifecycle is not None
    hops = directory / "hops.jsonl"
    events = directory / "events.jsonl"
    write_jsonl(obs.lifecycle.records, hops)
    write_jsonl(obs.kernel.records, events)
    rows = []
    for line in events.read_text().splitlines():
        row = json.loads(line)
        del row["wall_seconds"]
        rows.append(json.dumps(row, sort_keys=True) + "\n")
    return {"hops.jsonl": _sha256(hops.read_bytes()),
            "events.jsonl without wall_seconds":
                _sha256("".join(rows).encode())}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        digests = traced_digests(Path(scratch))
    document = {"config": {"scenario": CONFIG.scenario,
                           "delta": CONFIG.delta,
                           "duration": CONFIG.duration, "seed": CONFIG.seed},
                "sha256": digests}
    TABLE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
