"""Triangle and clustering statistics against networkx as the oracle."""

import math

import networkx as nx
import numpy as np
import pytest

from netstats import stats
from netstats.graph import Format, IncompatibleGraphError, undirected
from netstats.plots import plot_clustering_distribution
from netstats.stats import Workspace, compute

from gen import ALL_COMBOS, graph_from_pairs, random_graph


def simple_nx(g):
    """The underlying simple loopless graph of ``g`` (its latest state for
    event logs), with every node, as a networkx graph on combined ids."""
    static = Workspace(g).g
    u, v = static.endpoints()
    oracle = nx.Graph()
    oracle.add_nodes_from(range(1, static.n + 1))
    oracle.add_edges_from((a, b) for a, b in zip(u.tolist(), v.tolist()) if a != b)
    return oracle


def from_nx(oracle):
    nodes = {node: i + 1 for i, node in enumerate(oracle.nodes)}
    pairs = [(nodes[a], nodes[b]) for a, b in oracle.edges]
    return graph_from_pairs(pairs, len(nodes))


def check_against_networkx(g):
    oracle = simple_nx(g)
    per_node = nx.triangles(oracle)
    want = np.array([per_node[v] for v in range(1, g.n + 1)], dtype=np.int64)
    ws = Workspace(g)
    np.testing.assert_array_equal(stats._triangles_per_node(ws.pattern), want)
    np.testing.assert_array_equal(ws.triangles, want)
    assert compute(g, "triangles").value == want.sum() // 3
    if g.is_bipartite:
        for name in ("clusco", "clusco2"):
            with pytest.raises(IncompatibleGraphError):
                compute(g, name)
        with pytest.raises(IncompatibleGraphError):
            plot_clustering_distribution(ws)
        return
    clusco = compute(g, "clusco").value
    if sum(math.comb(d, 2) for _, d in oracle.degree) == 0:
        assert math.isnan(clusco)
    else:
        assert clusco == pytest.approx(nx.transitivity(oracle), rel=1e-12)
    assert compute(g, "clusco2").value == pytest.approx(
        nx.average_clustering(oracle), rel=1e-12, abs=1e-15)
    local = nx.clustering(oracle)
    distinct, counts = np.unique([local[v] for v in range(1, g.n + 1)], return_counts=True)
    series = plot_clustering_distribution(ws)
    np.testing.assert_allclose(series.columns["local_clustering"], distinct, rtol=1e-12)
    np.testing.assert_allclose(series.columns["fraction_at_most"],
                               np.cumsum(counts) / g.n, rtol=1e-12)


@pytest.mark.parametrize("fmt, weights", ALL_COMBOS,
                         ids=[f"{f.value}-{w.value}" for f, w in ALL_COMBOS])
def test_random_graphs_match_networkx(fmt, weights):
    rng = np.random.default_rng(ALL_COMBOS.index((fmt, weights)))
    for _ in range(4):
        check_against_networkx(random_graph(rng, fmt, weights, n_max=18, m_max=120))


SHAPES = {
    # every node has the same degree, so the orientation breaks ties by id
    "regular-4": nx.random_regular_graph(4, 40, seed=1),
    "regular-7": nx.random_regular_graph(7, 24, seed=2),
    "complete-8": nx.complete_graph(8),
    "cycle-9": nx.cycle_graph(9),
    "star-30": nx.star_graph(30),
    "wheel-25": nx.wheel_graph(25),
    "friendship-6": nx.windmill_graph(3, 6),
    # a few hubs hold most of the edges
    "preferential-300": nx.barabasi_albert_graph(300, 4, seed=3),
    "hubs-and-leaves": nx.compose(nx.star_graph(60), nx.complete_graph(12)),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_shapes_match_networkx(name):
    check_against_networkx(from_nx(SHAPES[name]))


def test_pieces_of_the_pass_add_up(monkeypatch):
    # work bounds far below one row's work put nearly every row in a piece of its own
    oracle = SHAPES["preferential-300"]
    g = from_nx(oracle)
    chunks = stats._row_chunks
    monkeypatch.setattr(stats, "_row_chunks", lambda work, bound=0: chunks(work, 7))
    per_node = nx.triangles(oracle)
    np.testing.assert_array_equal(stats._triangles_per_node(g.pattern),
                                  [per_node[v] for v in oracle.nodes])


def test_signed_triple_trace_matches_dense_trace():
    # every unipartite format x negative weight type; the counters make sure
    # the graphs hold loops, parallel and reciprocal arcs and zero-sum pairs
    rng = np.random.default_rng(23)
    seen = dict.fromkeys(["loops", "parallel", "reciprocal", "zero-sum"], 0)
    for fmt, weights in ALL_COMBOS:
        if fmt is Format.BIPARTITE or not weights.allows_negative:
            continue
        for _ in range(40):
            g = random_graph(rng, fmt, weights, n_max=9, m_max=60)
            adj = undirected(g).adjacency
            signs = np.sign(adj.toarray())
            np.fill_diagonal(signs, 0)
            assert Workspace(g).signed_triple_trace == np.trace(signs @ signs @ signs)
            seen["loops"] += int(np.sum(g.src == g.dst))
            seen["parallel"] += len(g.src) - len(g.pairs.keys)
            if g.is_directed:
                a, b = g.pairs.endpoints()
                seen["reciprocal"] += int(np.sum(g.pairs.reciprocated() & (a != b)))
            seen["zero-sum"] += int(np.sum(adj.data == 0))
    assert all(seen.values()), seen
