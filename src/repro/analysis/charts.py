"""ASCII chart rendering for the experiment reports.

The figure benchmarks archive plain-text results; a small line chart
makes the tradeoff curves readable in a terminal without any plotting
dependency.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["ascii_line_chart"]


def ascii_line_chart(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot one or more (name, xs, ys) series on a shared scatter grid.

    Each series gets a marker from ``*+o#@``; the legend maps them back.
    """
    points = [
        (x, y) for _name, xs, ys in series for x, y in zip(xs, ys)
    ]
    if not points:
        return "(no data)"
    x_values = [p[0] for p in points]
    y_values = [p[1] for p in points]
    x_min, x_max = min(x_values), max(x_values)
    y_min, y_max = min(y_values), max(y_values)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    markers = "*+o#@"
    for index, (_name, xs, ys) in enumerate(series):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            column = round((x - x_min) / x_span * (width - 1))
            row = height - 1 - round((y - y_min) / y_span * (height - 1))
            grid[row][column] = marker

    lines = [f"{y_label} ({y_min:g} .. {y_max:g})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} ({x_min:g} .. {x_max:g})")
    legend = "  ".join(
        f"{markers[i % len(markers)]} = {name}" for i, (name, _xs, _ys) in enumerate(series)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
