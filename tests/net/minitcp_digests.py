"""SHA-256 digests of a short mini-TCP cell, pinned across commits.

The responsive-traffic ablation cell: INRIA-UMd at seed 6 with its
open-loop bulk share replaced by two :class:`ResponsiveBulkSource`
mini-TCP mixes (one per direction), probed at δ = 8 ms for 4,000 probes
after a 30 s warm-up.  ``tests/data/minitcp_digests.json`` holds the
SHA-256 of the probe rtts (their float64 bytes) and of every transfer's
outcome and :class:`~repro.net.transport.TransferStats`, one line per
transfer in launch order; ``tests/net/test_minitcp_digests.py``
recomputes both.  Any change to when mini-TCP sends, resends or times
out shows up as a digest change.  The kernel's event count is not
pinned: a superseded retransmission timer fires as a no-op, so it counts
timers that never act.

Regenerate the table (from the repository root) only for a deliberate
change of that output, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.net.minitcp_digests
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.net.transport import MiniTcpSender
from repro.netdyn.session import run_probe_experiment
from repro.topology.inria_umd import build_inria_umd
from repro.traffic.tcpflows import ResponsiveBulkSource

CONFIG = {"scenario": "inria-umd", "seed": 6, "delta": 0.008,
          "count": 4000, "start_at": 30.0}
TABLE = Path(__file__).resolve().parents[1] / "data" / "minitcp_digests.json"


def _transfer_line(sender: MiniTcpSender) -> str:
    stats = sender.stats
    return (f"{sender.port} {sender.total_segments} {sender.finished} "
            f"{sender.finish_time!r} {stats.segments_sent} "
            f"{stats.retransmissions} {stats.timeouts} "
            f"{stats.fast_retransmits} {stats.acks_received}\n")


def cell_digests() -> Dict[str, object]:
    """Run the cell; digest its probe rtts and its transfers."""
    scenario = build_inria_umd(seed=CONFIG["seed"], utilization_fwd=0.10,
                               utilization_rev=0.09, bulk_fraction=0.0)
    scenario.start_traffic()
    fr = scenario.network.host("cross-fr.icp.net")
    us = scenario.network.host("cross-us.nsf.net")
    sources = [
        ResponsiveBulkSource(fr, us, session_rate=0.4, mean_file_segments=20.0,
                         stream="tcp.fwd", base_port=20_000, max_window=6.0),
        ResponsiveBulkSource(us, fr, session_rate=0.36,
                         mean_file_segments=20.0, stream="tcp.rev",
                         base_port=40_000, max_window=6.0),
    ]
    for source in sources:
        source.start()
    trace = run_probe_experiment(scenario.network, scenario.source,
                                 scenario.echo, delta=CONFIG["delta"],
                                 count=CONFIG["count"],
                                 start_at=CONFIG["start_at"])
    senders = [sender for source in sources for sender in source.senders]
    transfers = "".join(_transfer_line(sender) for sender in senders)
    return {
        "probes lost": trace.loss_count,
        "transfers": len(senders),
        "timeouts": sum(sender.stats.timeouts for sender in senders),
        "sha256": {
            "probe rtts": hashlib.sha256(trace.rtts.tobytes()).hexdigest(),
            "transfers": hashlib.sha256(transfers.encode()).hexdigest(),
        },
    }


def main() -> int:
    document = {"config": CONFIG, **cell_digests()}
    TABLE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
