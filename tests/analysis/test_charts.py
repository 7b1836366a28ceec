"""Tests for ASCII chart rendering."""

from repro.analysis.charts import ascii_line_chart


class TestLineChart:
    def test_empty(self):
        assert ascii_line_chart([]) == "(no data)"

    def test_single_series_dimensions(self):
        text = ascii_line_chart(
            [("depth", [1, 2, 3, 4], [10, 20, 15, 40])], width=30, height=8
        )
        lines = text.splitlines()
        plot_rows = [line for line in lines if line.startswith("|")]
        assert len(plot_rows) == 8
        assert all(len(row) <= 31 for row in plot_rows)

    def test_markers_in_legend(self):
        text = ascii_line_chart(
            [("a", [0, 1], [0, 1]), ("b", [0, 1], [1, 0])]
        )
        assert "* = a" in text
        assert "+ = b" in text

    def test_extremes_plotted(self):
        text = ascii_line_chart([("s", [0, 10], [0, 100])], width=20, height=5)
        rows = [line[1:] for line in text.splitlines() if line.startswith("|")]
        assert rows[0].rstrip().endswith("*")   # max y at top-right
        assert rows[-1].startswith("*")          # min y at bottom-left

    def test_constant_series_no_crash(self):
        text = ascii_line_chart([("flat", [1, 2, 3], [5, 5, 5])])
        assert "*" in text
