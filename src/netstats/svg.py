"""Static SVG rendering of plot series; byte-deterministic for a given input."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .graph import GraphError

if TYPE_CHECKING:  # annotations only: the command line renders without loading plots
    from .plots import PlotSeries

WIDTH, HEIGHT = 640, 480
MARGIN = 60

_LINE_KINDS = {
    "lorenz",
    "cumulative-degree-distribution",
    "distance-distribution",
    "clustering-distribution",
}
_BAR_KINDS = {"temporal-distribution", "weight-distribution"}

_POS_COLOR = "#2a8f2a"
_NEG_COLOR = "#c33939"
_MAIN_COLOR = "#33548f"
_PALETTE = ["#33548f", "#c33939", "#2a8f2a", "#8f6a2a", "#7a3a8f", "#2a8f86"]


class Axis:
    def __init__(self, values, log, px_lo, px_hi):
        values = np.asarray(values, dtype=np.float64)
        if log:
            if np.any(values <= 0):
                raise GraphError("log axis requires strictly positive values")
            values = np.log10(values)
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        self.log = log
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def place(self, v: float) -> float:
        return float(self.places([v])[0])

    def places(self, values) -> np.ndarray:
        """Pixel coordinate of each value.

        The log is ``math.log10`` per value, which ``np.log10`` need not
        match to the last bit; the rest is the same IEEE arithmetic as on
        one Python float.
        """
        v = np.asarray(values, dtype=np.float64)
        if self.log:
            v = np.fromiter(map(math.log10, v.tolist()), np.float64, len(v))
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def pixel_text(self, values) -> list[str]:
        """Pixel coordinate of each value, to two decimals."""
        return list(map("{:.2f}".format, self.places(values).tolist()))

    def ticks(self):
        if self.log:
            lo, hi = math.floor(self.lo), math.ceil(self.hi)
            powers = range(lo, hi + 1)
            return [(10.0**p, f"1e{p}") for p in powers if self.lo <= p <= self.hi] or [
                (10.0**self.lo, f"{10.0 ** self.lo:.3g}")
            ]
        raw = np.linspace(self.lo, self.hi, 5)
        return [(v, f"{v:.4g}") for v in raw]


def _axes(series: PlotSeries, x, y):
    ax = Axis(x, series.scales.get("x") == "log", MARGIN, WIDTH - MARGIN // 2)
    ay = Axis(y, series.scales.get("y") == "log", HEIGHT - MARGIN, MARGIN // 2)
    return ax, ay


def _xy_columns(series: PlotSeries):
    named = series.columns
    if series.kind == "out-in-comparison":
        return named["outdegree"], named["indegree"]
    if series.kind == "assortativity-plot":
        return named["degree"], named["neighbor_avg_degree"]
    if series.kind.startswith("drawing-"):
        return named["x"], named["y"]
    return tuple(named.values())[:2]


def render_svg(series: PlotSeries) -> bytes:
    """Render a series to a standalone SVG document."""
    if len(series) == 0:
        raise GraphError("cannot render an empty series")
    if series.kind == "spectrum-cumulative":
        body, ax, ay = _render_spectrum_cumulative(series)
    elif series.kind == "spectrum-topk":
        body, ax, ay = _render_spectrum_topk(series)
    elif series.kind == "temporal-distance-distribution":
        body, ax, ay = _render_temporal_distance(series)
    else:
        x, y = _xy_columns(series)
        ax, ay = _axes(series, x, y)
        if series.kind in _BAR_KINDS:
            body = _bars(series, x, y, ax, ay)
        elif series.kind in _LINE_KINDS:
            body = [_polyline(x, y, ax, ay, _MAIN_COLOR)]
        else:
            body = _dots(x, y, ax, ay, _MAIN_COLOR)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{series.kind}</text>',
    ]
    parts.extend(_frame(ax, ay))
    parts.extend(body)
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _frame(ax: Axis, ay: Axis) -> list[str]:
    out = [
        f'<line x1="{ax.px_lo}" y1="{ay.px_lo}" x2="{ax.px_hi}" y2="{ay.px_lo}" '
        f'stroke="black"/>',
        f'<line x1="{ax.px_lo}" y1="{ay.px_lo}" x2="{ax.px_lo}" y2="{ay.px_hi}" '
        f'stroke="black"/>',
    ]
    for v, label in ax.ticks():
        px = ax.place(v)
        out.append(
            f'<line x1="{px:.2f}" y1="{ay.px_lo}" x2="{px:.2f}" y2="{ay.px_lo + 5}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{ay.px_lo + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    for v, label in ay.ticks():
        py = ay.place(v)
        out.append(
            f'<line x1="{ax.px_lo - 5}" y1="{py:.2f}" x2="{ax.px_lo}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{ax.px_lo - 8}" y="{py + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    return out


def _dots(x, y, ax, ay, color) -> list[str]:
    return [
        f'<circle cx="{a}" cy="{b}" r="2.5" fill="{color}" fill-opacity="0.7"/>'
        for a, b in zip(ax.pixel_text(x), ay.pixel_text(y))
    ]


def _polyline(x, y, ax, ay, color) -> str:
    pts = " ".join(map(",".join, zip(ax.pixel_text(x), ay.pixel_text(y))))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _bars(series, x, y, ax, ay) -> list[str]:
    width = max(1.0, (ax.px_hi - ax.px_lo) / max(len(series), 1) - 2)
    base = ay.place(max(ay.lo, 0.0) if not ay.log else 10.0**ay.lo)
    out = []
    for a, b in zip(x, y):
        if b <= 0 and ay.log:
            continue
        px, py = ax.place(float(a)), ay.place(float(b))
        out.append(
            f'<rect x="{px - width / 2:.2f}" y="{min(py, base):.2f}" '
            f'width="{width:.2f}" height="{abs(base - py):.2f}" fill="{_MAIN_COLOR}"/>'
        )
    return out


def _render_spectrum_topk(series):
    idx = series.columns["index"]
    mag = series.columns["abs_value"]
    sign = series.columns["sign"]
    ax, ay = _axes(series, idx, mag)
    base = ay.place(max(float(np.min(mag)), 0.0) if not ay.log else float(np.min(mag)))
    out = []
    for i, v, s in zip(idx, mag, sign):
        color = _POS_COLOR if s >= 0 else _NEG_COLOR
        px, py = ax.place(float(i)), ay.place(float(v))
        out.append(
            f'<line x1="{px:.2f}" y1="{base:.2f}" x2="{px:.2f}" y2="{py:.2f}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
    return out, ax, ay


def _render_spectrum_cumulative(series):
    right = series.columns["bin_right"]
    cmin = series.columns["cum_count_min"]
    cmax = series.columns["cum_count_max"]
    ax, ay = _axes(series, right, np.concatenate([cmin, cmax]))
    out = [_polyline(right, cmax, ax, ay, _MAIN_COLOR)]
    for a, lo_v, hi_v in zip(right, cmin, cmax):
        if hi_v > lo_v:  # uncertainty box
            px = ax.place(float(a))
            y1, y2 = ay.place(float(hi_v)), ay.place(float(lo_v))
            out.append(
                f'<rect x="{px - 3:.2f}" y="{y1:.2f}" width="6" '
                f'height="{abs(y2 - y1):.2f}" fill="{_MAIN_COLOR}" fill-opacity="0.3"/>'
            )
    return out, ax, ay


def _render_temporal_distance(series):
    time = series.columns["time"]
    hop = series.columns["hop"]
    frac = series.columns["fraction_within"]
    ax, ay = _axes(series, time, frac)
    out = []
    for i, h in enumerate(np.unique(hop)):
        mask = hop == h
        color = _PALETTE[i % len(_PALETTE)]
        out.append(_polyline(time[mask], frac[mask], ax, ay, color))
    return out, ax, ay
