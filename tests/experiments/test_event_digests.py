"""Plain event-mode cells match the committed digests.

See :mod:`tests.experiments.event_digests` for what is pinned and how to
regenerate the table after a deliberate change.
"""

import json

from tests.experiments.event_digests import CELLS, TABLE, all_digests


def test_event_cells_match_committed_digests():
    table = json.loads(TABLE.read_text())
    for name, config in CELLS.items():
        pinned = table["cells"][name]
        assert (pinned["scenario"], pinned["delta"], pinned["duration"],
                pinned["warmup"], pinned["seed"]) == (
            config.scenario, config.delta, config.duration, config.warmup,
            config.seed), f"{name}: configuration differs from the table"
        assert pinned["scenario_kwargs"] == config.scenario_kwargs, name
    assert set(table["sha256"]) == set(CELLS)
    computed = all_digests()
    differing = sorted(
        f"{name}: {quantity}"
        for name, digests in computed.items()
        for quantity, digest in digests.items()
        if table["sha256"][name][quantity] != digest)
    assert not differing, f"cells differ from the committed digests: " \
                          f"{differing}"
