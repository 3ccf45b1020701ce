"""Tests for report generation."""

from repro.experiments.figures import FigureResult
from repro.experiments.report import as_markdown, as_text


def sample_results():
    first = FigureResult("Table 9", "demo")
    first.add("metric", "1.0", "1.1", True)
    second = FigureResult("Figure 42", "demo2")
    second.add("other", "x", "y", False)
    second.rendering = "ASCII ART"
    return [first, second]


class TestAsText:
    def test_contains_all_rows(self):
        text = as_text(sample_results())
        assert "Table 9" in text
        assert "Figure 42" in text
        assert "1/2 comparison rows passed" in text

    def test_renderings_optional(self):
        results = sample_results()
        assert "ASCII ART" not in as_text(results, renderings=False)
        assert "ASCII ART" in as_text(results, renderings=True)


class TestAsMarkdown:
    def test_table_structure(self):
        markdown = as_markdown(sample_results())
        lines = markdown.splitlines()
        assert lines[0].startswith("| Experiment |")
        assert any("| Table 9 | metric | 1.0 | 1.1 | yes |" in line
                   for line in lines)
        assert any("| no |" in line for line in lines)
