"""Deterministic plot-data emitters: named numeric columns plus axis scales.

Every builder takes the dataset's :class:`~netstats.stats.Workspace`, the
one the statistics use: ``ws.raw`` for the record columns (timestamps,
weights, multiplicities), ``ws.g`` for the measured graph (an event log's
latest state), ``ws.lcc`` for its largest component and ``ws.opts`` for
the solver options.  Each builder returns one or more :class:`PlotSeries`;
``to_tsv`` serializes a series with a single ``#`` header line naming the
kind, columns, scales and annotations.  Rendering to SVG lives in
:mod:`netstats.svg`.  :data:`PLOTS` is the catalog of plot kinds, in
``--all`` order: each maps ``(ws, k)`` to its files as ``(stem, PlotSeries
or text)`` pairs, a series' stem being ``plot.<series.kind>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stats as _stats
from .graph import GraphError, IncompatibleGraphError
# unused here; perfbench/trace_run.py wraps these names in every module it times
from .graph import largest_connected_component, latest_state  # noqa: F401
from .spectral import (
    MatrixKind,
    SPECTRUM_K,
    build_operator,
    eig_general,
    eig_symmetric,
    spectrum,
)
from .io import number_text
from .stats import Workspace

SPECTRUM_BINS = 49  # odd, so no bin boundary sits at zero for the normalized matrix
TEMPORAL_BINS = 100


@dataclass(frozen=True)
class PlotSeries:
    kind: str
    columns: dict[str, np.ndarray]
    scales: dict[str, str] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise GraphError("plot columns must have equal length")

    def __len__(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def to_tsv(self) -> str:
        names = ",".join(self.columns)
        scales = ",".join(f"{k}:{v}" for k, v in sorted(self.scales.items()))
        notes = "".join(
            f"\t{k}={v}" for k, v in sorted(self.annotations.items())
        )
        header = f"# kind={self.kind}\tcolumns={names}\tscales={scales}{notes}"
        cols = [_column_text(c) for c in self.columns.values()]
        return "\n".join([header, *map("\t".join, zip(*cols))]) + "\n"


def _column_text(column):
    """A column's cells as text: integers by ``str``, floats by ``number_text``."""
    column = np.asarray(column)
    if column.dtype.kind in "biu":
        return map(str, column.tolist())
    return number_text(column)


def plot_temporal(ws: Workspace) -> PlotSeries:
    """Edge counts per uniform time bin over [min, max] timestamp."""
    ts = ws.raw.timestamp
    if ts is None:
        raise IncompatibleGraphError("temporal distribution requires timestamps")
    lo, hi = float(ts.min()), float(ts.max())
    if lo == hi:
        return PlotSeries(
            "temporal-distribution",
            {"time": np.array([lo]), "count": np.array([len(ts)])},
            {"x": "linear", "y": "linear"},
            {"bins": "1"},
        )
    counts, edges = np.histogram(ts, bins=TEMPORAL_BINS, range=(lo, hi))
    return PlotSeries(
        "temporal-distribution",
        {"time": edges[:-1], "count": counts},
        {"x": "linear", "y": "linear"},
        {"bins": str(TEMPORAL_BINS)},
    )


def plot_weight(ws: Workspace) -> PlotSeries:
    """Frequency of each distinct raw edge weight (ratings stay uncentered)."""
    g = ws.raw
    if not (g.weights.has_weight_column and g.weight is not None):
        raise IncompatibleGraphError("no edge weights to plot")
    values, counts = np.unique(g.weight, return_counts=True)
    return PlotSeries(
        "weight-distribution",
        {"weight": values, "count": counts},
        {"x": "linear", "y": "linear"},
    )


def plot_multiplicity(ws: Workspace) -> PlotSeries:
    """Frequency of per-pair edge multiplicities, on doubly logarithmic scales."""
    if not ws.raw.weights.allows_multi:
        raise IncompatibleGraphError("multiplicity distribution requires multi-edges")
    values, counts = np.unique(ws.raw.pairs.sums, return_counts=True)
    return PlotSeries(
        "multiplicity-distribution",
        {"multiplicity": values, "count": counts},
        {"x": "log", "y": "log"},
    )


def plot_degree(ws: Workspace) -> tuple[PlotSeries, PlotSeries]:
    """Degree frequency plot and strictly-greater-than cumulative plot."""
    deg = ws.g.degrees
    n = len(deg)
    values, counts = np.unique(deg, return_counts=True)
    nz = values > 0  # zero degree cannot appear on the log axis
    dist = PlotSeries(
        "degree-distribution",
        {"degree": values[nz], "count": counts[nz]},
        {"x": "log", "y": "log"},
        {"zero_degree_nodes": str(int(counts[~nz].sum()))},
    )
    # evaluate P(d > n) at the step points of the curve: each distinct
    # degree and the integer just below it
    sorted_deg = np.sort(deg)
    points = np.unique(np.concatenate([values, values - 1]))
    points = points[points >= 0]
    frac = 1 - np.searchsorted(sorted_deg, points, side="right") / n
    keep = frac > 0
    points, frac = points[keep], frac[keep]
    scales = {"x": "log", "y": "log"}
    notes = {"semantics": "strictly-greater", "zero_tail_dropped": "1"}
    if len(points) == 0 or points.min() <= 0:  # degenerate for log axes
        scales = {"x": "linear", "y": "linear"}
        notes["scale_fallback"] = "nonpositive-values"
    cumulative = PlotSeries(
        "cumulative-degree-distribution",
        {"degree": points, "fraction_greater": frac},
        scales,
        notes,
    )
    return dist, cumulative


def plot_lorenz(ws: Workspace) -> PlotSeries:
    x, y = _stats.lorenz_curve(ws.g.degrees)
    return PlotSeries(
        "lorenz",
        {"node_fraction": x, "edge_fraction": y},
        {"x": "linear", "y": "linear"},
    )


def plot_out_in(ws: Workspace) -> PlotSeries:
    g = ws.g
    if not g.is_directed:
        raise IncompatibleGraphError("out/in comparison requires a directed graph")
    nodes = np.arange(1, g.n + 1)
    return PlotSeries(
        "out-in-comparison",
        {"node": nodes, "outdegree": g.out_degrees, "indegree": g.in_degrees},
        {"x": "linear", "y": "linear"},
    )


def plot_assortativity(ws: Workspace) -> PlotSeries:
    """Degree vs. the average degree of neighbors, per non-isolated node."""
    deg = ws.g.degrees.astype(np.float64)
    sdeg = ws.sdeg
    neighbor_sum = ws.pattern @ deg
    keep = sdeg > 0
    avg = neighbor_sum[keep] / sdeg[keep]
    return PlotSeries(
        "assortativity-plot",
        {
            "node": np.arange(1, ws.g.n + 1)[keep],
            "degree": deg[keep],
            "neighbor_avg_degree": avg,
        },
        {"x": "log", "y": "log"},
        {"isolated_dropped": str(int((~keep).sum()))},
    )


def plot_clustering_distribution(ws: Workspace) -> PlotSeries:
    """Cumulative distribution of the local clustering coefficient.

    The per-node triangle counts are the Workspace's, shared with ``clusco2``.
    """
    if ws.g.is_bipartite:
        raise IncompatibleGraphError("clustering is undefined for bipartite graphs")
    values = np.sort(_stats._local_clustering_values(ws))
    distinct, counts = np.unique(values, return_counts=True)
    fraction = np.cumsum(counts) / len(values)
    return PlotSeries(
        "clustering-distribution",
        {"local_clustering": distinct, "fraction_at_most": fraction},
        {"x": "linear", "y": "linear"},
    )


_SPECTRUM_MATRICES = {
    "adjacency": (MatrixKind.ADJACENCY, "largest-absolute"),
    "normalized": (MatrixKind.NORMALIZED, "largest-absolute"),
    "laplacian": (MatrixKind.LAPLACIAN, "smallest"),
}


def plot_spectrum(ws: Workspace, matrix: str = "adjacency", k: int = SPECTRUM_K):
    """Top-k eigenvalue plot, 49-bin cumulative spectral distribution and
    the eigensolver's result.

    The adjacency and normalized spectra are those of the whole graph, the
    Laplacian spectrum that of the largest component.  The cumulative
    distribution is exact (full dense spectrum) up to the dense limit;
    above it, per-bin [min, max] counts bracket where the unresolved
    eigenvalues can fall.
    """
    if matrix not in _SPECTRUM_MATRICES:
        raise GraphError(f"unknown spectrum matrix {matrix!r}")
    kind, order = _SPECTRUM_MATRICES[matrix]
    op = build_operator(ws.lcc if kind is MatrixKind.LAPLACIAN else ws.g, kind)
    k = min(k, op.dim)
    res = spectrum(op, k, order, tol=ws.opts.tol, seed=ws.opts.seed)
    exact = len(res.values) == op.dim
    values = np.real(res.values)
    shown = values[:k]
    topk = PlotSeries(
        "spectrum-topk",
        {
            "index": np.arange(1, len(shown) + 1),
            "abs_value": np.abs(shown),
            "sign": np.sign(shown).astype(np.int64),
        },
        {"x": "linear", "y": "linear"},
        {"matrix": matrix, "order": order},
    )
    cumulative = _spectrum_cumulative(op, values, exact, matrix)
    return topk, cumulative, res


def _spectrum_cumulative(op, values, exact, matrix) -> PlotSeries:
    dim = op.dim
    if exact:
        lo, hi = float(values.min()), float(values.max())
        unresolved = 0
        region = (0.0, 0.0)
    else:
        bound = op.norm_bound()
        if matrix == "adjacency":
            lo, hi = -bound, bound
            a = float(np.min(np.abs(values)))
            region = (-a, a)
        elif matrix == "normalized":
            lo, hi = -1.0, 1.0
            a = float(np.min(np.abs(values)))
            region = (-a, a)
        else:  # laplacian, smallest-first
            lo, hi = 0.0, bound
            region = (float(values.max()), hi)
        unresolved = dim - len(values)
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, SPECTRUM_BINS + 1)
    # a value that rounds just outside [lo, hi] still belongs to an end bin
    counts, _ = np.histogram(np.clip(values, lo, hi), bins=edges)
    cum = np.cumsum(counts)
    right = edges[1:]
    if unresolved:
        cum_min = cum + np.where(right >= region[1], unresolved, 0)
        cum_max = cum + np.where(right >= region[0], unresolved, 0)
        # the final bin always contains every eigenvalue
        cum_min[-1] = cum_max[-1] = dim
    else:
        cum_min = cum_max = cum
    return PlotSeries(
        "spectrum-cumulative",
        {"bin_right": right, "cum_count_min": cum_min, "cum_count_max": cum_max},
        {"x": "linear", "y": "linear"},
        {
            "matrix": matrix,
            "bins": str(SPECTRUM_BINS),
            "method": "exact" if exact else "estimated",
            "unresolved": str(unresolved),
        },
    )


def plot_complex_eigenvalues(ws: Workspace, k: int = SPECTRUM_K) -> PlotSeries:
    """Top-k complex adjacency eigenvalues of a directed graph."""
    if not ws.g.is_directed:
        raise IncompatibleGraphError("complex eigenvalues require a directed graph")
    op = build_operator(ws.g, MatrixKind.ADJACENCY)
    res = eig_general(op, min(k, op.dim), tol=ws.opts.tol, seed=ws.opts.seed)
    return PlotSeries(
        "complex-eigenvalues",
        {"real": res.values.real, "imag": res.values.imag},
        {"x": "linear", "y": "linear"},
        {"k": str(len(res.values))},
    )


def plot_distance_distribution(ws: Workspace) -> PlotSeries:
    """Cumulative fraction of node pairs within each hop count."""
    data = ws.hops
    frac = np.cumsum(data.counts) / data.counts.sum()
    return PlotSeries(
        "distance-distribution",
        {"hop": np.arange(len(data.counts)), "fraction_within": frac},
        {"x": "linear", "y": "linear"},
        {
            "includes_self_pairs": "true",
            "method": "exact" if data.exact else "estimated",
        },
    )


def plot_temporal_distance(
    ws: Workspace, snapshots: list[float] | None = None
) -> PlotSeries:
    """The distance distribution of the graph cut at each snapshot time
    (by default five, splitting the timestamp range evenly), long-format:
    (time, hop, fraction).

    A snapshot that holds all records uses the Workspace's hop data, shared
    with ``distance``; one that holds the same records as the one before it
    reuses that one's hop data.
    """
    g = ws.raw
    if g.timestamp is None:
        raise IncompatibleGraphError("temporal plots require timestamps")
    if snapshots is None:
        lo, hi = float(g.timestamp.min()), float(g.timestamp.max())
        # the last cut is hi itself: lo + (hi - lo) can round below hi
        snapshots = [lo + (hi - lo) * i / 5 for i in range(1, 5)] + [hi]
    times, hops, fracs = [], [], []
    method = "exact"
    # snapshots nest, so one with as many records as the last holds the same ones
    held = 0
    for cut in snapshots:
        keep = g.timestamp <= cut
        count = int(np.count_nonzero(keep))
        if count == 0:
            continue
        if count == len(keep):
            data = ws.hops
        elif count != held:
            data = Workspace(g.select(keep), ws.opts).hops
        held = count
        frac = np.cumsum(data.counts) / data.counts.sum()
        if not data.exact:
            method = "estimated"
        for h, f in enumerate(frac):
            times.append(cut)
            hops.append(h)
            fracs.append(f)
    return PlotSeries(
        "temporal-distance-distribution",
        {"time": np.array(times), "hop": np.array(hops), "fraction_within": np.array(fracs)},
        {"x": "linear", "y": "linear"},
        {"includes_self_pairs": "true", "method": method},
    )


_DRAWING_MATRICES = {
    "A": MatrixKind.ADJACENCY,
    "N": MatrixKind.NORMALIZED,
    "L": MatrixKind.LAPLACIAN,
}


def draw_graph(ws: Workspace, matrix: str = "A") -> PlotSeries:
    """Spectral layout: two eigenvectors give the (x, y) node coordinates.

    Adjacency and normalized layouts use the two eigenvectors of largest
    absolute eigenvalue; the Laplacian layout uses the eigenvectors of the
    two smallest nonzero eigenvalues.  Disconnected inputs are drawn on
    their largest component (annotated).
    """
    if matrix not in _DRAWING_MATRICES:
        raise GraphError(f"unknown drawing matrix {matrix!r}")
    kind = _DRAWING_MATRICES[matrix]
    op = build_operator(ws.lcc, kind)
    if op.dim < 3:
        raise IncompatibleGraphError("spectral drawings need at least 3 nodes")
    tol, seed = ws.opts.tol, ws.opts.seed
    if kind is MatrixKind.LAPLACIAN:
        res = eig_symmetric(op, 3, "smallest", tol=tol, seed=seed)
        vx, vy = res.vectors[:, 1], res.vectors[:, 2]  # skip the zero eigenvector
    else:
        res = eig_symmetric(op, 2, "largest-absolute", tol=tol, seed=seed)
        vx, vy = res.vectors[:, 0], res.vectors[:, 1]
    vx, vy = _fix_sign(vx), _fix_sign(vy)
    annotations = {"matrix": matrix}
    node_ids = op.nodes
    if ws.lcc is not ws.g:  # the Workspace's LCC is the graph when it is connected
        annotations["restricted_to_lcc"] = "true"
        node_ids = ws.lcc.node_origin[node_ids - 1]
    return PlotSeries(
        f"drawing-{matrix}",
        {"node": node_ids, "x": vx, "y": vy},
        {"x": "linear", "y": "linear"},
        annotations,
    )


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec.copy()


def _stems(*series: PlotSeries) -> list[tuple[str, PlotSeries]]:
    return [(f"plot.{s.kind}", s) for s in series]


def _spectrum_files(ws: Workspace, k: int) -> list[tuple[str, PlotSeries | str]]:
    files = []
    for matrix in _SPECTRUM_MATRICES:
        topk, cumulative, res = plot_spectrum(ws, matrix, k)
        files += [(f"plot.spectrum-topk-{matrix}", topk),
                  (f"spectra.{matrix}", res.values_tsv()),
                  (f"plot.spectrum-cumulative-{matrix}", cumulative)]
    return files


PLOTS = {
    "temporal": lambda ws, k: _stems(plot_temporal(ws)),
    "weight": lambda ws, k: _stems(plot_weight(ws)),
    "multiplicity": lambda ws, k: _stems(plot_multiplicity(ws)),
    "degree": lambda ws, k: _stems(*plot_degree(ws)),
    "lorenz": lambda ws, k: _stems(plot_lorenz(ws)),
    "out-in": lambda ws, k: _stems(plot_out_in(ws)),
    "assortativity": lambda ws, k: _stems(plot_assortativity(ws)),
    "clustering": lambda ws, k: _stems(plot_clustering_distribution(ws)),
    "spectrum": _spectrum_files,
    "complex-eigenvalues": lambda ws, k: _stems(plot_complex_eigenvalues(ws, k)),
    "distance": lambda ws, k: _stems(plot_distance_distribution(ws)),
    "temporal-distance": lambda ws, k: _stems(plot_temporal_distance(ws)),
    "drawing": lambda ws, k: _stems(*(draw_graph(ws, m) for m in _DRAWING_MATRICES)),
}
