"""Every kernel/obs throughput number the docs quote is a committed value.

README.md and DESIGN.md §8 ("Hot path") quote events/s figures from the
``kernel`` and ``obs`` benchmark suites.  Each one must equal a metric in
the committed ``benchmarks/BENCH_kernel.json`` or
``benchmarks/BENCH_obs.json``, so re-running a suite without updating the
prose (or the reverse) fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A quoted rate: digits with optional thousands separators, then events/s.
_RATE = re.compile(r"(\d[\d,]*)\s+events/s\b")


def committed_rates(suite: str) -> set:
    report = json.loads(
        (ROOT / "benchmarks" / f"BENCH_{suite}.json").read_text())
    return {entry["value"] for entry in report["metrics"].values()
            if entry["unit"] == "events/s"}


def quoted_rates(text: str) -> list:
    return [float(number.replace(",", "")) for number in _RATE.findall(text)]


def design_hot_path() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index("\n## 8. Hot path")
    return text[start:text.index("\n## 9.", start)]


@pytest.mark.parametrize("where", ["README.md", "DESIGN.md §8"])
def test_quoted_rates_are_committed(where):
    text = (design_hot_path() if where.startswith("DESIGN")
            else (ROOT / where).read_text())
    quoted = quoted_rates(text)
    assert quoted, f"{where} quotes no events/s figure"
    committed = committed_rates("kernel") | committed_rates("obs")
    assert [rate for rate in quoted if rate not in committed] == []


@pytest.mark.parametrize("suite", ["kernel", "obs"])
def test_each_suite_is_quoted(suite):
    quoted = set(quoted_rates((ROOT / "README.md").read_text())
                 + quoted_rates(design_hot_path()))
    assert quoted & committed_rates(suite)

