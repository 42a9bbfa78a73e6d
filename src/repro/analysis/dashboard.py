"""Results dashboard (§5): "a quick glance of the multi-dimensional
performance data for our benchmarks".

A text dashboard over the metrics database / analysis results: per
(benchmark, system) cells of a chosen FOM, scaling series, and an ASCII
scatter-plus-model plot used by the Figure 14 bench to show measurements
(dots) against the Extra-P model (line), like the paper's figure.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["render_grid", "render_series", "ascii_plot", "render_report"]


def render_grid(
    rows: Sequence[str],
    cols: Sequence[str],
    cells: Mapping[Tuple[str, str], Any],
    title: str = "",
    missing: str = "—",
) -> str:
    """A rows × cols table, e.g. benchmark × system FOM values."""
    col_width = max([len(str(c)) for c in cols] + [10]) + 2
    row_width = max([len(str(r)) for r in rows] + [10]) + 2
    lines = []
    if title:
        lines.append(title)
    header = " " * row_width + "".join(f"{str(c):>{col_width}}" for c in cols)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        cells_txt = []
        for c in cols:
            v = cells.get((r, c), missing)
            if isinstance(v, float):
                v = f"{v:.4g}"
            cells_txt.append(f"{str(v):>{col_width}}")
        lines.append(f"{str(r):<{row_width}}" + "".join(cells_txt))
    return "\n".join(lines)


def render_series(
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
    model: Optional[Sequence[float]] = None,
) -> str:
    """A two(/three)-column numeric series table."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    header = f"{x_label:>12} {y_label:>16}"
    if model is not None:
        if len(model) != len(xs):
            raise ValueError("model series must match xs length")
        header += f" {'model':>16}"
    lines = [header]
    for idx, (x, y) in enumerate(zip(xs, ys)):
        line = f"{x:>12g} {y:>16.6g}"
        if model is not None:
            line += f" {model[idx]:>16.6g}"
        lines.append(line)
    return "\n".join(lines)


def ascii_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    model_ys: Optional[Sequence[float]] = None,
    width: int = 64,
    height: int = 18,
    point_char: str = "o",
    line_char: str = "*",
) -> str:
    """Scatter ('o' = measurements) + optional model curve ('*') — the
    textual analogue of Figure 14's red dots and blue line."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("nothing to plot")
    all_y = ys if model_ys is None else np.concatenate([ys, np.asarray(model_ys)])
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]

    def put(x: float, y: float, ch: str) -> None:
        col = int(round((x - x_min) / x_span * (width - 1)))
        row = int(round((y - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][col] = ch

    if model_ys is not None:
        # dense-ish model line across the x range
        for x, y in zip(xs, np.asarray(model_ys, dtype=float)):
            put(x, y, line_char)
    for x, y in zip(xs, ys):
        put(x, y, point_char)

    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    lines.append(f"x: [{x_min:g}, {x_max:g}]   y: [{y_min:g}, {y_max:g}]   "
                 f"{point_char}=measured" + ("" if model_ys is None else f" {line_char}=model"))
    return "\n".join(lines)


def render_report(db, title: str = "Benchpark results dashboard") -> str:
    """A full markdown dashboard over a metrics database (§5's interactive
    dashboard, in its textual form): per-FOM benchmark × system grids of
    mean values, usage metrics, and record counts.

    A cell averages the usable (finite numeric) values of its (benchmark,
    system, FOM); the grid's units are those of the first record of the
    last cell that has any.
    """
    systems = sorted(db.labels("system"))
    benchmarks = sorted(db.labels("benchmark"))
    lines = [f"# {title}", "",
             f"{len(db)} records | benchmarks: {', '.join(benchmarks)} | "
             f"systems: {', '.join(systems)}", ""]
    fom_names = db.labels("fom_name")
    fom_col = db.column("fom_name")
    ok = db.column("value_ok")
    values = db.column("value")
    for f, fom in sorted(enumerate(fom_names), key=lambda item: item[1]):
        cells: Dict[Tuple[str, str], Any] = {}
        units = ""
        for b in benchmarks:
            for s in systems:
                rows = db.partition_rows(s, b)
                rows = rows[fom_col[rows] == f]
                numeric = rows[ok[rows]]
                if numeric.size:
                    cells[(b, s)] = float(np.mean(values[numeric]))
                    units = db.units(int(rows[0]))
        if not cells:
            continue
        rows = sorted({b for b, _ in cells})
        unit_suffix = f" [{units}]" if units else ""
        lines += [f"## {fom}{unit_suffix} (mean)", "",
                  render_grid(rows, systems, cells), ""]
    lines.append("## benchmark usage (records per benchmark)")
    lines.append("")
    for name, count in db.benchmark_usage().items():
        lines.append(f"- {name}: {count}")
    return "\n".join(lines)
