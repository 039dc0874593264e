"""Standalone SVG line charts with deterministic byte output."""

from __future__ import annotations

import csv
import io
import math
from html import escape

from .config import StockcastError

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
)
WIDTH, HEIGHT = 900, 480  # the chart's size in pixels


class ChartError(StockcastError):
    """Series that cannot be drawn or merged."""


def _check_series(series) -> None:
    if not series:
        raise ChartError("nothing to plot")
    for label, values in series:
        if len(values) == 0:
            raise ChartError(f"series {label!r} is empty")
        for v in values:
            if not math.isfinite(v):
                raise ChartError(f"series {label!r} contains a non-finite value")


def render_line_chart(series, title: str = "") -> str:
    """WIDTH x HEIGHT SVG with axes, y grid, a legend, and one polyline per (label, values).

    The x axis is the sample index. Output depends only on the inputs, so
    identical calls produce identical bytes.
    """
    _check_series(series)
    max_len = max(len(values) for _, values in series)
    y_min = min(min(values) for _, values in series)
    y_max = max(max(values) for _, values in series)
    if y_min == y_max:
        pad = max(1.0, abs(y_min) * 0.1)
        y_min -= pad
        y_max += pad
    x_max = max(max_len - 1, 1)

    m_left, m_right = 70.0, 24.0
    m_top = 44.0 if title else 24.0
    m_bottom = 48.0
    plot_w = WIDTH - m_left - m_right
    plot_h = HEIGHT - m_top - m_bottom

    def px(index: float) -> float:
        return m_left + (index / x_max) * plot_w

    def py(value: float) -> float:
        return m_top + (1.0 - (value - y_min) / (y_max - y_min)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#222222">{escape(title, quote=False)}</text>'
        )
    # y grid and labels
    for k in range(5):
        value = y_min + (y_max - y_min) * k / 4.0
        y = py(value)
        parts.append(
            f'<line x1="{m_left:.2f}" y1="{y:.2f}" x2="{WIDTH - m_right:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{m_left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{value:.6g}</text>'
        )
    # x ticks
    tick_indices = sorted({round(x_max * k / 5) for k in range(6)})
    for index in tick_indices:
        x = px(index)
        parts.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - m_bottom:.2f}" x2="{x:.2f}" '
            f'y2="{HEIGHT - m_bottom + 5:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - m_bottom + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{index}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{m_left:.2f}" y1="{m_top:.2f}" x2="{m_left:.2f}" '
        f'y2="{HEIGHT - m_bottom:.2f}" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{m_left:.2f}" y1="{HEIGHT - m_bottom:.2f}" x2="{WIDTH - m_right:.2f}" '
        f'y2="{HEIGHT - m_bottom:.2f}" stroke="#444444" stroke-width="1"/>'
    )
    # series
    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if len(values) == 1:
            parts.append(
                f'<circle cx="{px(0):.2f}" cy="{py(values[0]):.2f}" r="3" fill="{color}"/>'
            )
        else:
            points = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(values))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    # legend, top right inside the plot area
    legend_x = WIDTH - m_right - 170
    for idx, (label, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y = m_top + 14 + idx * 17
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{y - 4:.2f}" x2="{legend_x + 22:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="12" fill="#222222">{escape(str(label), quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def merge_csv(series) -> str:
    """index plus one column per series label; requires equal lengths."""
    _check_series(series)
    lengths = {len(values) for _, values in series}
    if len(lengths) != 1:
        raise ChartError(f"ragged series lengths {sorted(lengths)}; cannot merge")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index"] + [label for label, _ in series])
    for i in range(lengths.pop()):
        writer.writerow([i + 1] + [f"{values[i]:.17g}" for _, values in series])
    return buffer.getvalue()
