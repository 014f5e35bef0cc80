import numpy as np
import pytest

from netstats.graph import Format, Graph, GraphError, IncompatibleGraphError, WeightType
from netstats.plots import (
    _spectrum_cumulative,
    draw_graph,
    plot_assortativity,
    plot_clustering_distribution,
    plot_complex_eigenvalues,
    plot_degree,
    plot_distance_distribution,
    plot_lorenz,
    plot_multiplicity,
    plot_out_in,
    plot_spectrum,
    plot_temporal,
    plot_temporal_distance,
    plot_weight,
)
from netstats.spectral import MatrixKind, build_operator
from netstats.stats import Workspace, compute
from netstats.svg import render_svg

from gen import graph_from_pairs, random_simple_undirected


def k3():
    return graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3)


def temporal_graph(ts):
    k = len(ts)
    return Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED,
                 n1=k + 1, n2=None,
                 src=np.arange(1, k + 1), dst=np.arange(2, k + 2),
                 weight=np.ones(k), timestamp=np.asarray(ts, dtype=np.float64))


def test_temporal_single_timestamp():
    series = plot_temporal(Workspace(temporal_graph([7.0, 7.0, 7.0])))
    assert len(series) == 1
    assert series.columns["count"][0] == 3


def test_temporal_counts_conserved():
    rng = np.random.default_rng(1)
    ts = rng.uniform(0, 1000, size=200)
    series = plot_temporal(Workspace(temporal_graph(ts)))
    assert series.columns["count"].sum() == 200
    # uniform timestamps: no bin wildly off a flat profile (loose sanity check)
    assert series.columns["count"].max() <= 20


def test_temporal_requires_timestamps():
    with pytest.raises(IncompatibleGraphError):
        plot_temporal(Workspace(k3()))


def test_weight_distribution_ratings():
    g = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], 5,
                         weights=WeightType.WEIGHTED, w=[1, 2, 3, 4, 5])
    series = plot_weight(Workspace(g))
    assert len(series) == 5
    assert series.columns["count"].sum() == 5


def test_multiplicity_distribution():
    g = graph_from_pairs([(1, 2), (1, 2), (2, 3)], 3, weights=WeightType.POSITIVE)
    series = plot_multiplicity(Workspace(g))
    pairs = dict(zip(series.columns["multiplicity"].tolist(),
                     series.columns["count"].tolist()))
    assert pairs == {1: 1, 2: 1}
    assert series.scales == {"x": "log", "y": "log"}


def test_degree_distribution():
    dist, cum = plot_degree(Workspace(graph_from_pairs([(5, i) for i in (1, 2, 3, 4)], 5)))
    assert set(dist.columns["degree"].tolist()) == {1, 4}
    assert np.all(np.diff(cum.columns["fraction_greater"]) <= 0)
    assert cum.columns["fraction_greater"][0] <= 1
    regular, _ = plot_degree(Workspace(k3()))
    assert len(regular) == 1


def test_degree_distribution_roundtrip_multiset():
    rng = np.random.default_rng(5)
    g = random_simple_undirected(rng, 30, 0.2)
    dist, _ = plot_degree(Workspace(g))
    rebuilt = np.repeat(dist.columns["degree"], dist.columns["count"])
    expected = np.sort(g.degrees[g.degrees > 0])
    assert np.array_equal(np.sort(rebuilt), expected)


def test_lorenz_curve_area_is_half_gini():
    rng = np.random.default_rng(9)
    g = random_simple_undirected(rng, 200, 0.05)
    series = plot_lorenz(Workspace(g))
    x, y = series.columns["node_fraction"], series.columns["edge_fraction"]
    area = np.trapezoid(x - y, x)  # between diagonal and curve
    gini = compute(g, "gini").value
    assert 2 * area == pytest.approx(gini, abs=1e-9)
    assert (x[0], y[0]) == (0, 0) and (x[-1], y[-1]) == (1, 1)


def test_out_in_points():
    g = graph_from_pairs([(1, 2), (2, 1)], 2, fmt=Format.DIRECTED)
    series = plot_out_in(Workspace(g))
    assert len(series) == 2
    assert np.all(series.columns["outdegree"] == [1, 1])
    assert np.all(series.columns["indegree"] == [1, 1])
    with pytest.raises(IncompatibleGraphError):
        plot_out_in(Workspace(k3()))


def test_assortativity_plot_star():
    series = plot_assortativity(Workspace(graph_from_pairs([(5, i) for i in (1, 2, 3, 4)], 5)))
    pts = dict(zip(series.columns["degree"].tolist(),
                   series.columns["neighbor_avg_degree"].tolist()))
    assert pts == {4.0: 1.0, 1.0: 4.0}
    assert np.all(series.columns["neighbor_avg_degree"] > 0)


def test_assortativity_plot_regular():
    series = plot_assortativity(Workspace(k3()))
    assert np.all(series.columns["degree"] == 2)
    assert np.all(series.columns["neighbor_avg_degree"] == 2)


def test_clustering_distribution():
    cliques = graph_from_pairs([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)], 6)
    series = plot_clustering_distribution(Workspace(cliques))
    assert series.columns["local_clustering"].tolist() == [1.0]
    tree = graph_from_pairs([(1, 2), (2, 3)], 3)
    assert plot_clustering_distribution(Workspace(tree)).columns["local_clustering"].tolist() == [0.0]


def test_spectrum_topk_and_bins():
    rng = np.random.default_rng(13)
    g = random_simple_undirected(rng, 40, 0.2)
    topk, cumulative, _ = plot_spectrum(Workspace(g), "adjacency")
    assert cumulative.annotations["method"] == "exact"
    assert int(cumulative.columns["cum_count_min"][-1]) == 40
    n_topk, n_cum, _ = plot_spectrum(Workspace(g), "normalized")
    op_dim = int(n_cum.columns["cum_count_min"][-1])
    vals = n_topk.columns["abs_value"]
    assert np.all(vals <= 1 + 1e-9)


def test_spectrum_bipartite_symmetric_bins():
    g = graph_from_pairs([(1, 1), (1, 2), (2, 1), (2, 3)], 2,
                         fmt=Format.BIPARTITE, n2=3)
    _, cumulative, _ = plot_spectrum(Workspace(g), "adjacency")
    counts = np.diff(np.concatenate([[0], cumulative.columns["cum_count_min"]]))
    assert np.array_equal(counts, counts[::-1])  # mirror-symmetric about zero


def test_spectrum_estimated_brackets():
    rng = np.random.default_rng(17)
    g = random_simple_undirected(rng, 600, 0.01)
    from netstats.graph import largest_connected_component

    _, cumulative, _ = plot_spectrum(Workspace(largest_connected_component(g)), "adjacency", k=12)
    assert cumulative.annotations["method"] == "estimated"
    cmin = cumulative.columns["cum_count_min"]
    cmax = cumulative.columns["cum_count_max"]
    assert np.all(cmin <= cmax)
    assert cmax[-1] == cmin[-1]  # the full range holds every eigenvalue


def test_spectrum_estimated_bins_keep_values_rounded_past_the_bound():
    # an eigenvalue -1 of the normalized matrix may round just below -1
    hexagon = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)], 6)
    op = build_operator(hexagon, MatrixKind.NORMALIZED)
    cumulative = _spectrum_cumulative(op, np.array([-1 - 5e-15, -0.5, 1 + 5e-15]),
                                      False, "normalized")
    cmin = cumulative.columns["cum_count_min"]
    assert cmin[0] == 1
    assert np.all(np.diff(cmin) >= 0) and cmin[-1] == op.dim


def test_complex_eigenvalues_plot():
    c3 = graph_from_pairs([(1, 2), (2, 3), (3, 1)], 3, fmt=Format.DIRECTED)
    series = plot_complex_eigenvalues(Workspace(c3))
    radii = np.hypot(series.columns["real"], series.columns["imag"])
    assert np.allclose(radii, 1.0, atol=1e-9)
    dag = graph_from_pairs([(1, 2), (2, 3)], 3, fmt=Format.DIRECTED,
                           tags={"#acyclic"})
    series = plot_complex_eigenvalues(Workspace(dag))
    assert np.allclose(series.columns["real"], 0, atol=1e-12)
    with pytest.raises(IncompatibleGraphError):
        plot_complex_eigenvalues(Workspace(k3()))


def test_distance_distribution():
    series = plot_distance_distribution(Workspace(k3()))
    assert series.columns["fraction_within"][-1] == pytest.approx(1.0)
    # all pairs within hop 1 (self pairs at hop 0)
    assert series.columns["hop"].tolist() == [0, 1]


def test_temporal_distance_monotone():
    ts = [1.0, 2.0, 3.0, 4.0]
    g = Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED,
              n1=5, n2=None, src=np.array([1, 2, 3, 4]), dst=np.array([2, 3, 4, 5]),
              weight=np.ones(4), timestamp=np.array(ts))
    series = plot_temporal_distance(Workspace(g), snapshots=[1.5, 2.5, 4.0])
    assert series.kind == "temporal-distance-distribution"
    hops = series.columns["hop"]
    times = series.columns["time"]
    frac = series.columns["fraction_within"]
    single = plot_distance_distribution(Workspace(
        Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED, n1=5, n2=None,
              src=np.array([1, 2, 3, 4]), dst=np.array([2, 3, 4, 5]),
              weight=np.ones(4), timestamp=np.array(ts))))
    late = frac[(times == 4.0) & (hops == 1)]
    assert late[0] == pytest.approx(single.columns["fraction_within"][1])


def test_draw_graph():
    layout = draw_graph(Workspace(k3()), "L")
    xs, ys = layout.columns["x"], layout.columns["y"]
    pts = np.stack([xs, ys], axis=1)
    d01 = np.linalg.norm(pts[0] - pts[1])
    d02 = np.linalg.norm(pts[0] - pts[2])
    d12 = np.linalg.norm(pts[1] - pts[2])
    assert d01 == pytest.approx(d02, abs=1e-8) or d01 == pytest.approx(d12, abs=1e-8)
    again = draw_graph(Workspace(k3()), "L")
    assert np.array_equal(layout.columns["x"], again.columns["x"])
    with pytest.raises(IncompatibleGraphError):
        draw_graph(Workspace(graph_from_pairs([(1, 2)], 2)), "A")


def test_draw_path_fiedler_monotone():
    p4 = graph_from_pairs([(1, 2), (2, 3), (3, 4)], 4)
    layout = draw_graph(Workspace(p4), "L")
    x = layout.columns["x"]
    diffs = np.diff(x)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_series_tsv_header():
    series = plot_lorenz(Workspace(k3()))
    text = series.to_tsv()
    first = text.splitlines()[0]
    assert first.startswith("# kind=lorenz")
    assert "columns=node_fraction,edge_fraction" in first
    assert "scales=x:linear,y:linear" in first


def test_svg_determinism_and_errors():
    series = plot_lorenz(Workspace(k3()))
    assert render_svg(series) == render_svg(series)
    dist, _cum = plot_degree(Workspace(graph_from_pairs([(5, i) for i in (1, 2, 3, 4)], 5)))
    svg = render_svg(dist)
    assert svg.count(b"<circle") == len(dist)
    empty = plot_lorenz(Workspace(k3()))
    from dataclasses import replace

    with pytest.raises(GraphError):
        render_svg(replace(empty, columns={"x": np.array([]), "y": np.array([])}))


def test_svg_log_axis_rejects_zero():
    from netstats.plots import PlotSeries

    bad = PlotSeries("degree-distribution",
                     {"degree": np.array([0.0, 1.0]), "count": np.array([1.0, 2.0])},
                     {"x": "log", "y": "log"})
    with pytest.raises(GraphError):
        render_svg(bad)


def test_spectrum_svg_sign_colors():
    topk, _, _ = plot_spectrum(Workspace(k3()), "adjacency")
    svg = render_svg(topk).decode()
    assert "#2a8f2a" in svg and "#c33939" in svg
