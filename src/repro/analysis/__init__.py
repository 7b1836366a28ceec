"""Metric extraction and report formatting."""

from repro.analysis.charts import ascii_line_chart
from repro.analysis.metrics import CircuitMetrics, collect_metrics
from repro.analysis.reporting import format_percent, format_series, format_table

__all__ = [
    "CircuitMetrics",
    "collect_metrics",
    "format_table",
    "format_series",
    "format_percent",
    "ascii_line_chart",
]
