"""Assortativity, connectivity, distance and algebraic-connectivity statistics
against networkx as the oracle, over every format x weight-type pair."""

import math
import warnings

import networkx as nx
import numpy as np
import pytest

from netstats.graph import IncompatibleGraphError
from netstats.stats import Workspace, compute, eccentricity

from gen import ALL_COMBOS, random_graph

GRAPHS_PER_PAIR = 4


def random_graphs(fmt, weights):
    rng = np.random.default_rng(100 + ALL_COMBOS.index((fmt, weights)))
    return [random_graph(rng, fmt, weights, n_max=18, m_max=60)
            for _ in range(GRAPHS_PER_PAIR)]


def over_all_combos(test):
    return pytest.mark.parametrize(
        "fmt, weights", ALL_COMBOS,
        ids=[f"{f.value}-{w.value}" for f, w in ALL_COMBOS])(test)


def static(g):
    """The graph the statistics measure (an event log's latest state), and
    its records as (u, v, edge count, weight) on combined ids."""
    s = Workspace(g).g
    u, v = s.endpoints()
    return s, list(zip(u.tolist(), v.tolist(), s.multiplicities.tolist(),
                       s.effective_weights.tolist()))


def nx_graph(g, cls=nx.Graph):
    s, records = static(g)
    oracle = cls()
    oracle.add_nodes_from(range(1, s.n + 1))
    oracle.add_edges_from((a, b) for a, b, _, _ in records)
    return oracle


def largest_component(oracle):
    """networkx's largest component; ties go to the one with the smallest node."""
    return oracle.subgraph(min(nx.connected_components(oracle), key=lambda c: (-len(c), min(c))))


@over_all_combos
def test_assortativity_matches_networkx(fmt, weights):
    for g in random_graphs(fmt, weights):
        if g.is_bipartite:
            with pytest.raises(IncompatibleGraphError):
                compute(g, "assortativity")
            continue
        s, records = static(g)
        got = compute(g, "assortativity").value
        # an undirected edge is an arc each way (a loop two arcs at its
        # node), as in the symmetric edge list of Newman's coefficient
        arcs = nx.MultiDiGraph()
        arcs.add_nodes_from(range(1, s.n + 1))
        for a, b, count, _ in records:
            arcs.add_edges_from([(a, b)] * count)
            if not s.is_directed:
                arcs.add_edges_from([(b, a)] * count)
        if arcs.number_of_edges() < 2:
            assert math.isnan(got)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant degrees give nan
            want = nx.degree_pearson_correlation_coefficient(
                arcs, x="out", y="in" if s.is_directed else "out")
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@over_all_combos
def test_components_match_networkx(fmt, weights):
    for g in random_graphs(fmt, weights):
        oracle = nx_graph(g)
        largest = max(map(len, nx.connected_components(oracle)))
        assert compute(g, "coco").value == largest
        assert compute(g, "cocorel").value == pytest.approx(largest / oracle.number_of_nodes())
        if not g.is_directed:
            with pytest.raises(IncompatibleGraphError):
                compute(g, "cocos")
            continue
        strong = max(map(len, nx.strongly_connected_components(nx_graph(g, nx.DiGraph))))
        assert compute(g, "cocos").value == strong


@over_all_combos
def test_distances_match_networkx(fmt, weights):
    for g in random_graphs(fmt, weights):
        oracle = nx_graph(g)
        lcc = largest_component(oracle)
        assert compute(g, "diam").value == nx.diameter(lcc)
        assert compute(g, "radius").value == nx.radius(lcc)
        for u in oracle:
            reach = nx.single_source_shortest_path_length(oracle, u)
            assert eccentricity(g, u) == max(reach.values())


@over_all_combos
def test_alcon_matches_networkx(fmt, weights):
    for g in random_graphs(fmt, weights):
        if g.weights.allows_negative:
            with pytest.raises(IncompatibleGraphError):
                compute(g, "alcon")
            continue
        # loops are left out: networkx's Laplacian ignores them, and this
        # program's does not (CHANGES.md)
        if not g.is_bipartite:
            g = g.select(g.src != g.dst)
        s, records = static(g)
        multi = nx.MultiGraph()
        multi.add_nodes_from(range(1, s.n + 1))
        multi.add_weighted_edges_from((a, b, w) for a, b, _, w in records)
        lcc = largest_component(multi)
        got = compute(g, "alcon").value
        if lcc.number_of_nodes() < 2:
            assert math.isnan(got)
            continue
        want = np.sort(nx.laplacian_spectrum(lcc, weight="weight"))[1]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
