"""The mini-TCP cell's probe rtts and transfer stats match the committed
digests.

See :mod:`tests.net.minitcp_digests` for what is pinned and how to
regenerate the table after a deliberate change.
"""

import json

from tests.net.minitcp_digests import CONFIG, TABLE, cell_digests


def test_minitcp_cell_matches_committed_digests():
    table = json.loads(TABLE.read_text())
    assert table.pop("config") == CONFIG
    assert cell_digests() == table
