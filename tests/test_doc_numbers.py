"""Every kernel/obs/fastforward number the docs quote is a committed value.

README.md and DESIGN.md §8 ("Hot path") quote events/s figures from the
``kernel`` and ``obs`` benchmark suites.  Each one must equal a metric in
the committed ``benchmarks/BENCH_kernel.json`` or
``benchmarks/BENCH_obs.json``.  The README paragraphs that cite
``BENCH_fastforward.json`` and DESIGN.md §9 ("Analytic fast-forward
execution") quote seconds and × figures from the ``fastforward`` suite;
each one must equal a metric of the committed
``benchmarks/BENCH_fastforward.json`` at the quoted precision.  So
re-running a suite without updating the prose (or the reverse) fails
here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A quoted rate: digits with optional thousands separators, then events/s.
_RATE = re.compile(r"(\d[\d,]*)\s+events/s\b")

#: A quoted measurement in seconds or ×.  A bound (``≥ 3×``) and a test
#: floor (``floor of 10×``, ``2× floor``) are not measurements.
_FIGURE = re.compile(r"(?<![\d.])(?<!≥ )(?<!floor of )(\d+(?:\.\d+)?)"
                     r"( s\b|×)(?! floor)")


def committed_metrics(suite: str) -> dict:
    report = json.loads(
        (ROOT / "benchmarks" / f"BENCH_{suite}.json").read_text())
    return report["metrics"]


def committed_rates(suite: str) -> set:
    return {entry["value"] for entry in committed_metrics(suite).values()
            if entry["unit"] == "events/s"}


def quoted_rates(text: str) -> list:
    return [float(number.replace(",", "")) for number in _RATE.findall(text)]


def design_section(number: int) -> str:
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index(f"\n## {number}. ")
    end = text.find(f"\n## {number + 1}. ", start)
    return text[start:end if end >= 0 else len(text)]


def design_hot_path() -> str:
    return design_section(8)


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



def readme_fastforward_paragraphs() -> str:
    paragraphs = (ROOT / "README.md").read_text().split("\n\n")
    return "\n\n".join(paragraph for paragraph in paragraphs
                        if "BENCH_fastforward.json" in paragraph)


def quoted_figures(text: str) -> list:
    """``(number as written, unit)`` of every measured s/× figure."""
    return [(number, "s" if unit.strip() == "s" else "x")
            for number, unit in _FIGURE.findall(text)]


def test_figure_pattern_skips_bounds_and_floors():
    text = ("records 0.043 s vs 1.37 s, 32.1× (≥ 10× asserted, floor of "
            "10×; the ≥ 3× grid speedup, 2× floor)")
    assert quoted_figures(text) == [("0.043", "s"), ("1.37", "s"),
                                    ("32.1", "x")]


@pytest.mark.parametrize("where", ["README.md", "DESIGN.md §9"])
def test_quoted_fastforward_figures_are_committed(where):
    text = (design_section(9) if where.startswith("DESIGN")
            else readme_fastforward_paragraphs())
    quoted = quoted_figures(text)
    assert quoted, f"{where} quotes no fastforward figure"
    metrics = committed_metrics("fastforward").values()

    def committed(number: str, unit: str) -> bool:
        decimals = len(number.partition(".")[2])
        return any(f"{entry['value']:.{decimals}f}" == number
                   for entry in metrics if entry["unit"] == unit)

    assert [figure for figure in quoted if not committed(*figure)] == []
