"""Regenerate ``golden.json``, or list the figure seeds that pass every row.

Usage (from the repository root)::

    python3 perfbench/make_golden.py             # rewrite golden.json
    python3 perfbench/make_golden.py --vet 0 143 # candidate FIGURE_SEEDS

``--vet`` prints every seed on which all comparison rows pass, with its
simulated event count, and the subset within ``EVENT_TOLERANCE`` of the
median count (``workloads.FIGURE_SEEDS``).

The golden pins the default seed's artifacts: the figure report rows, and
the SHA-256 of ``manifest.json`` and every trace CSV of both campaign
workloads, each produced by a *serial* campaign run.  Regenerate it only
for a deliberate change of the program's output.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_golden.py")
    parser.add_argument("--vet", nargs=2, type=int, metavar=("FIRST", "LAST"),
                        help="print the figure seeds in [FIRST, LAST] on "
                             "which every comparison row passes")
    args = parser.parse_args(argv)
    if args.vet:
        first, last = args.vet
        passing = workloads.vet_figure_seeds(list(range(first, last + 1)))
        print(json.dumps({"passing_events": passing,
                          "even_work": workloads.even_work_seeds(passing)}))
        return 0
    with tempfile.TemporaryDirectory(dir=HERE.parent) as scratch:
        document = workloads.golden_document(Path(scratch))
    (HERE / "golden.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
