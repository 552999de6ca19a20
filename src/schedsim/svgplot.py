"""Minimal deterministic SVG charts (lines and grouped bars).

Hand-rolled on purpose: byte-identical output for identical inputs is part
of the reporting contract, so no plotting library with embedded ids, dates
or font state is used.
"""
from __future__ import annotations

import math
from html import escape  # not xml.sax.saxutils, which imports urllib and the network stack

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 80
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _fmt(v: float) -> str:
    return "%.2f" % v


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16" {_FONT}>'
        f"{escape(title, quote=False)}</text>",
    ]


def _axes(xlabel: str, ylabel: str) -> list[str]:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" {_FONT}>{escape(xlabel, quote=False)}</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="13" {_FONT} '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{escape(ylabel, quote=False)}</text>',
    ]


def _legend(names: list[str]) -> list[str]:
    parts = []
    x = MARGIN_LEFT + 12
    y = MARGIN_TOP + 6
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<rect class="legend" x="{x}" y="{y + 16 * i}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 18}" y="{y + 16 * i + 10}" font-size="12" {_FONT}>'
            f"{escape(name, quote=False)}</text>"
        )
    return parts


def _y_scale(y_lo: float, y_hi: float):
    span = y_hi - y_lo or 1.0
    inner_top = MARGIN_TOP
    inner_bottom = HEIGHT - MARGIN_BOTTOM
    return lambda v: inner_bottom - (v - y_lo) / span * (inner_bottom - inner_top)


def _y_axis_ticks(y_lo: float, y_hi: float, to_y) -> list[str]:
    parts = []
    for t in _nice_ticks(y_lo, y_hi):
        y = to_y(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="11" {_FONT}>'
            f"{t:.6g}</text>"
        )
    return parts


def line_chart(
    title: str,
    xlabel: str,
    ylabel: str,
    series: dict[str, list[tuple[float, float]]],
    y_range: tuple[float, float] | None = None,
) -> str:
    """Multi-series line chart; ``series`` maps legend name to (x, y) points."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_range is not None:
        y_lo, y_hi = y_range
    else:
        y_lo = min(0.0, min(ys))
        y_hi = max(ys) * 1.05 if max(ys) > 0 else 1.0

    to_y = _y_scale(y_lo, y_hi)
    x_span = x_hi - x_lo
    inner_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT

    def to_x(v):
        return MARGIN_LEFT + (v - x_lo) / x_span * inner_w

    parts = _header(title)
    parts += _axes(xlabel, ylabel)
    parts += _y_axis_ticks(y_lo, y_hi, to_y)
    for t in _nice_ticks(x_lo, x_hi):
        x = to_x(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-size="11" {_FONT}>{t:.6g}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join("%.2f,%.2f" % (to_x(x), to_y(min(max(y, y_lo), y_hi))) for x, y in pts)
        parts.append(
            f'<polyline class="line" fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    parts += _legend(list(series))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bar_chart(
    title: str,
    xlabel: str,
    ylabel: str,
    categories: list[str],
    series: dict[str, list[float]],
) -> str:
    """Grouped bars: one group per category, one bar per series within it."""
    n_cat = len(categories)
    n_series = len(series)
    y_hi = max(v for vals in series.values() for v in vals)
    y_hi = y_hi * 1.05 if y_hi > 0 else 1.0
    to_y = _y_scale(0.0, y_hi)
    inner_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    group_w = inner_w / n_cat
    bar_w = group_w * 0.8 / n_series
    y_base = HEIGHT - MARGIN_BOTTOM

    parts = _header(title)
    parts += _axes(xlabel, ylabel)
    parts += _y_axis_ticks(0.0, y_hi, to_y)
    for c, label in enumerate(categories):
        cx = MARGIN_LEFT + group_w * (c + 0.5)
        parts.append(
            f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-size="11" {_FONT}>{escape(label, quote=False)}</text>'
        )
    for i, (name, vals) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        for c, v in enumerate(vals):
            x = MARGIN_LEFT + group_w * c + group_w * 0.1 + bar_w * i
            y = to_y(v)
            parts.append('<rect class="bar" x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>'
                         % (x, y, bar_w, y_base - y, color))
    parts += _legend(list(series))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
