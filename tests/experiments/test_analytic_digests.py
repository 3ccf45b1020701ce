"""Two analytic campaign grids write the committed artifact bytes.

See :mod:`tests.experiments.analytic_digests` for what is pinned and how
to regenerate the table after a deliberate change.
"""

import json

from tests.experiments.analytic_digests import (
    GRIDS,
    TABLE,
    all_digests,
    differing,
)


def test_campaign_grids_match_committed_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    assert table["grids"] == GRIDS, "grid definitions differ from the table"
    bad = differing(table["sha256"], all_digests(tmp_path))
    assert not bad, f"files differ from the committed digests: {bad}"
