"""Whole-column TSV and SVG writers against the per-cell rules they replace."""

import math

import numpy as np
import pytest

from netstats import svg
from netstats.io import number_text
from netstats.plots import PlotSeries
from netstats.stats import format_value


def cell_text(v):
    """The per-cell number rule of plot and statistics TSVs, one value at a time."""
    if isinstance(v, (np.integer, np.floating)):
        v = v.item()
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(v)


def cell_tsv(series):
    names = ",".join(series.columns)
    scales = ",".join(f"{k}:{v}" for k, v in sorted(series.scales.items()))
    notes = "".join(f"\t{k}={v}" for k, v in sorted(series.annotations.items()))
    lines = [f"# kind={series.kind}\tcolumns={names}\tscales={scales}{notes}"]
    cols = list(series.columns.values())
    for i in range(len(series)):
        lines.append("\t".join(cell_text(c[i]) for c in cols))
    return "\n".join(lines) + "\n"


FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e15, -1e15, 1e15 - 1, 1e15 + 2,
          float(2**53 + 1), -float(2**53), 5e-324, -5e-324, 0.1, 2.5, -7.0, 1e-7,
          123456789.125, 1e300, 1 / 3]
INTS = [0, -1, 1, 2**53 + 1, -(2**53 + 1), 10**15, 2**63 - 1, -(2**63)]


def test_number_text_matches_cell_rule():
    assert number_text(np.array(FLOATS)) == [cell_text(v) for v in FLOATS]
    assert [format_value(v) for v in FLOATS] == [cell_text(v) for v in FLOATS]
    assert [format_value(v) for v in INTS] == [str(v) for v in INTS]
    assert number_text(np.array([], dtype=np.float64)) == []


def test_column_tsv_matches_cell_rule():
    rng = np.random.default_rng(5)
    n = len(INTS)
    series = PlotSeries(
        "mixed",
        {
            "float": np.array(FLOATS[:n]),
            "tail": np.array(FLOATS[n : 2 * n]),
            "int64": np.array(INTS, dtype=np.int64),
            "uint64": np.array([0, 1, 2**64 - 1, 2**63, 7, 8, 9, 10], dtype=np.uint64),
            "float32": np.array([0.1, 3.0, -0.0, 1e15, 2.5, math.nan, 7.75, 1e-3],
                                dtype=np.float32),
            "random": rng.standard_normal(n) * 10.0 ** rng.integers(-5, 20, n),
        },
        {"x": "log", "y": "linear"},
        {"note": "a"},
    )
    assert series.to_tsv() == cell_tsv(series)
    empty = PlotSeries("empty", {"x": np.array([]), "y": np.array([], dtype=np.int64)})
    assert empty.to_tsv() == cell_tsv(empty) == "# kind=empty\tcolumns=x,y\tscales=\n"


def point_place(axis, v):
    """Pixel coordinate of one value, as a per-point renderer computes it."""
    v = math.log10(v) if axis.log else v
    frac = (v - axis.lo) / (axis.hi - axis.lo)
    return axis.px_lo + frac * (axis.px_hi - axis.px_lo)


def point_dots(x, y, ax, ay, color):
    return [
        f'<circle cx="{point_place(ax, float(a)):.2f}" cy="{point_place(ay, float(b)):.2f}" '
        f'r="2.5" fill="{color}" fill-opacity="0.7"/>'
        for a, b in zip(x, y)
    ]


def point_polyline(x, y, ax, ay, color):
    pts = " ".join(
        f"{point_place(ax, float(a)):.2f},{point_place(ay, float(b)):.2f}"
        for a, b in zip(x, y)
    )
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _columns(rng, log):
    n = 3000
    if log:  # many decades, exact powers of ten and repeated values
        x = np.concatenate([10.0 ** rng.uniform(0, 7, n - 10), 10.0 ** np.arange(10)])
        y = np.concatenate([rng.integers(1, 10**6, n - 10), np.ones(10, dtype=np.int64)])
    else:
        x = rng.uniform(-1e4, 1e4, n)
        y = np.concatenate([rng.standard_normal(n - 3), [-0.0, 0.0, 1e-300]])
    return x, y


@pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
def test_svg_columns_match_point_renderer(log):
    rng = np.random.default_rng(11 + log)
    x, y = _columns(rng, log)
    series = PlotSeries("any", {"x": x, "y": y}, {"x": "log" if log else "linear",
                                                  "y": "log" if log else "linear"})
    ax, ay = svg._axes(series, x, y)
    assert svg._dots(x, y, ax, ay, "#000") == point_dots(x, y, ax, ay, "#000")
    assert svg._polyline(x, y, ax, ay, "#000") == point_polyline(x, y, ax, ay, "#000")
    for axis in (ax, ay):
        for v, _ in axis.ticks():
            assert axis.place(v) == point_place(axis, v)


def test_rendered_plots_match_point_renderer():
    rng = np.random.default_rng(17)
    degree = rng.integers(1, 500, 2000)
    neighbours = rng.uniform(1, 300, 2000)
    dots = PlotSeries("assortativity-plot",
                      {"node": np.arange(1, 2001), "degree": degree,
                       "neighbor_avg_degree": neighbours}, {"x": "log", "y": "log"})
    out = svg.render_svg(dots).decode()
    ax, ay = svg._axes(dots, degree, neighbours)
    assert "\n".join(point_dots(degree, neighbours, ax, ay, svg._MAIN_COLOR)) in out
    x = np.linspace(0, 1, 1001)
    line = PlotSeries("lorenz", {"node_fraction": x, "edge_fraction": x**3},
                      {"x": "linear", "y": "linear"})
    out = svg.render_svg(line).decode()
    ax, ay = svg._axes(line, x, x**3)
    assert point_polyline(x, x**3, ax, ay, svg._MAIN_COLOR) in out
