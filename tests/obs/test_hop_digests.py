"""The traced run's hop and event JSONL match the committed digests.

See :mod:`tests.obs.hop_digests` for what is pinned and how to
regenerate the table after a deliberate change.
"""

import json

from tests.obs.hop_digests import CONFIG, TABLE, traced_digests


def test_traced_run_matches_committed_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    assert table["config"]["seed"] == CONFIG.seed
    assert table["config"]["duration"] == CONFIG.duration
    assert traced_digests(tmp_path) == table["sha256"]
