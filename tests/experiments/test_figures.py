"""Smoke tests for the figure/table reproduction functions.

The full-length reproductions run in the benchmark suite; here each
function runs with a reduced sample count and must produce a structurally
complete result (rows, rendering) with the cheap checks passing.
"""

from repro.experiments import figures


class TestRoutes:
    def test_table1(self):
        result = figures.table1()
        assert result.all_ok
        assert "tom.inria.fr" in result.rendering
        assert "avwhub-gw.umd.edu" in result.rendering

    def test_table2(self):
        result = figures.table2()
        assert result.all_ok
        assert "lena.cs.umd.edu" in result.rendering


class TestDelayFigures:
    def test_figure1_structure(self):
        result = figures.figure1(seed=1, count=400)
        assert result.trace is not None
        assert len(result.trace) == 400
        assert result.rendering
        names = [row.name for row in result.rows]
        assert "loss probability" in names
        assert "min rtt (D)" in names

    def test_figure2_estimates_bottleneck(self):
        result = figures.figure2(seed=1, count=1200)
        assert result.all_ok, result.summary()

    def test_figure4_diagonal(self):
        result = figures.figure4(seed=1, count=400)
        assert any("diagonal" in row.name for row in result.rows)

    def test_figure5_clock_banding(self):
        result = figures.figure5(seed=1, count=1200)
        banding = [r for r in result.rows if "banding" in r.name]
        assert banding and banding[0].ok

    def test_figure6_diagonal(self):
        result = figures.figure6(seed=1, count=1200)
        assert result.all_ok, result.summary()


class TestWorkloadFigures:
    def test_figure8_peaks(self):
        result = figures.figure8(seed=1, duration=150.0)
        assert result.all_ok, result.summary()
        assert result.rendering

    def test_figure9_relative_heights(self):
        result = figures.figure9(seed=1, duration=200.0)
        ratio_rows = [r for r in result.rows if "ratio" in r.name]
        assert ratio_rows and ratio_rows[0].ok


class TestTable3:
    def test_shape_checks(self):
        result = figures.table3(seed=2, duration=60.0,
                                deltas=(0.008, 0.05, 0.5))
        assert result.rendering.count("ms") >= 3

    def test_comparison_rows_present(self):
        result = figures.table3(seed=2, duration=60.0,
                                deltas=(0.008, 0.05, 0.5))
        assert len(result.rows) == 5


class TestFigureResult:
    def test_summary_contains_status(self):
        result = figures.FigureResult("X", "test")
        result.add("a", "1", "2", True)
        result.add("b", "1", "3", False)
        summary = result.summary()
        assert "[OK ]" in summary
        assert "[MISS]" in summary
        assert not result.all_ok

    def test_registry_complete(self):
        expected = {"table1", "table2", "figure1", "figure2", "figure4",
                    "figure5", "figure6", "figure8", "figure9", "table3"}
        assert set(figures.ALL_FIGURES) == expected
