"""SHA-256 digests of two analytic campaign grids' artifacts, pinned.

The grids are the repository benchmark's ``campaign_analytic`` and
``campaign_pool`` campaigns at benchmark seed 1, written out here: the
paper's six δ values on INRIA-UMd, two minutes of probing per cell, in
analytic mode.  ``campaign_analytic`` runs seeds 1-8 on the calibrated
scenario (drop-tail walks, event fallbacks where a cell needs them);
``campaign_pool`` runs seeds 1-16 with an 8192-packet bottleneck buffer,
so every cell takes the no-drop certificate pass.
``tests/data/analytic_digests.json`` holds, per grid, the SHA-256 of
every trace CSV and of ``manifest.json`` with its ``versions`` block
(interpreter, NumPy and platform) stripped;
``tests/experiments/test_analytic_digests.py`` reruns both grids serially
and names every file that differs.  ``--check --workers 2`` checks the
same table on the warm worker pool, which merges to the same bytes.

The table pins today's bytes, faults included: the reverse-queue stats
the ``campaign_pool`` δ 8 ms seed-2 cell records in the manifest are
known to be off (CHANGES.md, PR 24), and ROADMAP item 5 will change them,
and so this table, as a reviewed diff.

Regenerate the table (from the repository root) only for a deliberate
change of that output, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.experiments.analytic_digests

Check it without rewriting, here on two pool workers::

    PYTHONPATH=src python -m tests.experiments.analytic_digests --check --workers 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import PAPER_DELTAS

#: Grid name -> seeds and scenario keywords (benchmark seed 1).
GRIDS: Dict[str, Dict[str, Any]] = {
    "campaign_analytic": {"seeds": list(range(1, 9)),
                          "scenario_kwargs": {}},
    "campaign_pool": {"seeds": list(range(1, 17)),
                      "scenario_kwargs": {"buffer_packets": 8192}},
}
DURATION = 120.0
TABLE = Path(__file__).resolve().parents[1] / "data" / "analytic_digests.json"


def grid_spec(name: str, output_dir: Path) -> CampaignSpec:
    grid = GRIDS[name]
    return CampaignSpec(deltas=PAPER_DELTAS, seeds=grid["seeds"],
                        duration=DURATION, scenario="inria-umd",
                        scenario_kwargs=dict(grid["scenario_kwargs"]),
                        output_dir=output_dir, mode="analytic")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(directory: Path) -> Dict[str, str]:
    """SHA-256 of every trace CSV and of the version-free manifest."""
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["versions"]
    digests = {"manifest.json": _sha256(json.dumps(
        manifest, indent=2, sort_keys=True).encode())}
    for path in sorted(directory.glob("trace_*.csv")):
        digests[path.name] = _sha256(path.read_bytes())
    return digests


def all_digests(workdir: Path, workers: int = 1) -> Dict[str, Dict[str, str]]:
    """Run every grid under ``workdir``; its digests, keyed by grid."""
    digests = {}
    for name in GRIDS:
        output_dir = workdir / name
        run_campaign(grid_spec(name, output_dir), workers=workers)
        digests[name] = artifact_digests(output_dir)
    return digests


def differing(pinned: Dict[str, Dict[str, str]],
              computed: Dict[str, Dict[str, str]]) -> List[str]:
    """Every ``grid/file`` whose digest differs or exists on one side."""
    return sorted(
        f"{name}/{file}"
        for name in sorted(set(pinned) | set(computed))
        for file in set(pinned.get(name, {})) | set(computed.get(name, {}))
        if pinned.get(name, {}).get(file) != computed.get(name, {}).get(file))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.experiments.analytic_digests")
    parser.add_argument("--check", action="store_true",
                        help="compare with the table instead of rewriting it")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker processes (default 1, serial)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        computed = all_digests(Path(scratch), workers=args.workers)
    if args.check:
        table = json.loads(TABLE.read_text())
        bad = differing(table["sha256"], computed)
        for file in bad:
            print(f"differs from the committed digest: {file}")
        return 1 if bad else 0
    TABLE.write_text(json.dumps({"grids": GRIDS, "sha256": computed},
                                indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
