import itertools
import math
import time

import numpy as np
import pytest

from netstats import stats
from netstats.graph import Format, Graph, IncompatibleGraphError, WeightType
from netstats.spectral import SpectralError
from netstats.stats import (
    Options,
    compute,
    compute_all,
    distance_histogram,
    eccentricity,
    local_clustering,
    lorenz_curve,
    statistic_names,
    statistics_tsv,
)

from gen import ALL_COMBOS, graph_from_pairs, random_simple_undirected


def k3():
    return graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3)


def star4():
    return graph_from_pairs([(5, i) for i in (1, 2, 3, 4)], 5)


def path3():
    return graph_from_pairs([(1, 2), (2, 3)], 3)


def val(g, name, **opts):
    o = Options(**opts) if opts else Options()
    return compute(g, name, o).value


# -- oracles ------------------------------------------------------------------


def adjacency_set(g):
    pairs = set()
    u, v = g.endpoints()
    for a, b in zip(u.tolist(), v.tolist()):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return pairs


def brute_counts(g):
    """Triple/quadruple-loop enumeration of t, q, s, z, x on the simple graph."""
    pairs = adjacency_set(g)
    nodes = sorted({x for p in pairs for x in p})
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    deg = {u: len(adj[u]) for u in nodes}
    s = sum(math.comb(d, 2) for d in deg.values())
    z = sum(math.comb(d, 3) for d in deg.values())
    x = sum(math.comb(d, 4) for d in deg.values())
    t = sum(
        1
        for a, b, c in itertools.combinations(nodes, 3)
        if b in adj[a] and c in adj[b] and a in adj[c]
    )
    q = 0
    for quad in itertools.combinations(nodes, 4):
        for perm in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            cycle = [quad[i] for i in perm]
            if all(
                cycle[i] in adj[cycle[(i + 1) % 4]] for i in range(4)
            ):
                q += 1
    return t, q, s, z, x


def floyd_warshall(g):
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0)
    for a, b in adjacency_set(g):
        d[a - 1, b - 1] = d[b - 1, a - 1] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


# -- basic --------------------------------------------------------------------


def test_size_volume_highland_tribes_scale():
    rng = np.random.default_rng(0)
    pairs = set()
    while len(pairs) < 58:
        a, b = sorted(rng.integers(1, 17, size=2).tolist())
        if a != b:
            pairs.add((a, b))
    g = graph_from_pairs(sorted(pairs), 16, weights=WeightType.SIGNED,
                         w=rng.choice([-1.0, 1.0], size=58))
    assert val(g, "size") == 16
    assert val(g, "volume") == 58


def test_basic_counts_k3():
    g = k3()
    assert val(g, "size") == 3
    assert val(g, "volume") == 3
    assert val(g, "uniquevolume") == 3
    assert val(g, "weight") == 3
    assert val(g, "avgdegree") == 2
    assert val(g, "fill") == 1
    assert val(g, "maxdegree") == 2
    assert val(g, "relmaxdegree") == 1


def test_volume_vs_uniquevolume():
    g = graph_from_pairs([(1, 2)] * 2, 2, weights=WeightType.POSITIVE)
    assert val(g, "volume") == 2
    assert val(g, "uniquevolume") == 1


def test_avgdegree_star_and_bipartite():
    assert val(star4(), "avgdegree") == pytest.approx(8 / 5)
    kb = graph_from_pairs([(i, j) for i in (1, 2) for j in (1, 2, 3)], 2,
                          fmt=Format.BIPARTITE, n2=3)
    res = compute(kb, "avgdegree")
    assert res.parameters == {"d1": 3.0, "d2": 2.0}


def test_fill_cases():
    two_cycle = graph_from_pairs([(1, 2), (2, 1)], 2, fmt=Format.DIRECTED)
    assert val(two_cycle, "fill") == 1.0
    kb = graph_from_pairs([(i, j) for i in (1, 2) for j in (1, 2, 3)], 2,
                          fmt=Format.BIPARTITE, n2=3)
    assert val(kb, "fill") == 1.0


def test_reciprocity():
    assert val(graph_from_pairs([(1, 2), (2, 1)], 2, fmt=Format.DIRECTED),
               "reciprocity") == 1.0
    dag = graph_from_pairs([(1, 2), (2, 3)], 3, fmt=Format.DIRECTED,
                           tags={"#acyclic"})
    assert val(dag, "reciprocity") == 0.0
    mixed = graph_from_pairs([(1, 2), (2, 1), (1, 3)], 3, fmt=Format.DIRECTED)
    assert val(mixed, "reciprocity") == pytest.approx(2 / 3)
    with pytest.raises(IncompatibleGraphError):
        compute(k3(), "reciprocity")


def test_negativity():
    allneg = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                              weights=WeightType.SIGNED, w=[-1, -1, -1])
    assert val(allneg, "negativity") == 1.0
    allpos = graph_from_pairs([(1, 2)], 2, weights=WeightType.SIGNED, w=[1])
    assert val(allpos, "negativity") == 0.0
    # ratings 5, 3, 4 with mu = 4: exactly one centered weight below zero
    ratings = graph_from_pairs([(1, 2), (2, 3), (3, 4)], 4,
                               weights=WeightType.WEIGHTED, w=[5, 3, 4])
    assert val(ratings, "negativity") == pytest.approx(1 / 3)


def test_connectivity_stats():
    g = graph_from_pairs([(1, 2), (2, 3), (4, 5)], 5)
    assert val(g, "coco") == 3
    assert val(g, "cocorel") == pytest.approx(3 / 5)
    assert val(g, "cocorelinv") == pytest.approx(2 / 5)
    assert val(k3(), "cocorel") == 1.0
    assert val(k3(), "cocorelinv") == 0.0


def test_cocos_oracle():
    # directed 3-cycle plus pendant out-edge: weak component 4, strong 3
    g = graph_from_pairs([(1, 2), (2, 3), (3, 1), (3, 4)], 4, fmt=Format.DIRECTED)
    assert val(g, "cocos") == 3
    assert val(g, "coco") == 4


def test_cocos_counts_a_zero_sum_pair_as_an_arc():
    # arcs 1->2 of weights +1 and -1 sum to an explicit zero in the adjacency
    g = graph_from_pairs([(1, 2), (1, 2), (2, 1)], 2, fmt=Format.DIRECTED,
                         weights=WeightType.MULTISIGNED, w=[1, -1, 1])
    assert g.adjacency[0, 1] == 0
    assert val(g, "cocos") == 2


def test_count_statistics_examples():
    assert val(k3(), "twostars") == 3
    assert val(k3(), "threestars") == 0
    assert val(k3(), "fourstars") == 0
    assert val(star4(), "twostars") == 6
    assert val(star4(), "threestars") == 4
    assert val(star4(), "fourstars") == 1
    assert val(path3(), "twostars") == 1
    assert val(k3(), "triangles") == 1
    k4 = graph_from_pairs(list(itertools.combinations((1, 2, 3, 4), 2)), 4)
    assert val(k4, "triangles") == 4
    assert val(k4, "squares") == 3
    c4 = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)], 4)
    assert val(c4, "squares") == 1
    tree = star4()
    assert val(tree, "squares") == 0


def test_count_statistics_vs_bruteforce():
    rng = np.random.default_rng(33)
    for n, p in ((12, 0.3), (25, 0.15), (40, 0.1)):
        g = random_simple_undirected(rng, n, p)
        t, q, s, z, x = brute_counts(g)
        assert val(g, "triangles") == t
        assert val(g, "squares") == q
        assert val(g, "twostars") == s
        assert val(g, "threestars") == z
        assert val(g, "fourstars") == x


def test_count_statistics_ignore_multiplicity_and_loops():
    g = graph_from_pairs([(1, 2), (1, 2), (2, 3), (1, 3), (1, 1)], 3,
                         weights=WeightType.POSITIVE, tags={"#loop"})
    assert val(g, "triangles") == 1
    assert val(g, "twostars") == 3


def test_tour4():
    c4 = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)], 4)
    # oracle: spectrum of C4 is {2, 0, 0, -2}; sum of fourth powers = 32
    assert val(c4, "tour4") == 32
    k2 = graph_from_pairs([(1, 2)], 2)
    assert val(k2, "tour4") == 2
    assert val(star4(), "tour4") == 8 * 0 + 4 * 6 + 2 * 4


def test_tour4_equals_dense_trace():
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = random_simple_undirected(rng, 30, 0.2)
        a = g.adjacency.toarray()
        assert val(g, "tour4") == pytest.approx(np.trace(np.linalg.matrix_power(a, 4)))


def test_power_law():
    g = graph_from_pairs([(1, 2), (3, 4), (3, 4), (3, 4)], 4,
                         weights=WeightType.POSITIVE)
    # degrees 1,1,3,3 -> dmin 1, logsum = 2 ln 3
    assert val(g, "power") == pytest.approx(1 + 4 / (2 * math.log(3)))
    degrees_1124 = graph_from_pairs([(4, 1), (4, 2), (4, 3), (4, 3)], 4,
                                    weights=WeightType.POSITIVE)
    # degrees 1,1,2,4 -> gamma = 1 + 4 / (3 ln 2)
    assert list(np.sort(degrees_1124.degrees)) == [1, 1, 2, 4]
    assert val(degrees_1124, "power") == pytest.approx(1 + 4 / (3 * math.log(2)))
    assert val(k3(), "power") == float("inf")


def test_gini():
    assert val(k3(), "gini") == pytest.approx(0, abs=1e-12)
    g = graph_from_pairs([(4, 4)] * 2, 4, weights=WeightType.POSITIVE,
                         tags={"#loop"})
    # degrees {0,0,0,4}: G = 2*(4*4)/(4*4) - 5/4 = 0.75
    assert val(g, "gini") == pytest.approx(0.75)


def test_gini_in_unit_interval():
    rng = np.random.default_rng(55)
    for _ in range(10):
        g = random_simple_undirected(rng, 40, rng.uniform(0.05, 0.4))
        if g.m == 0:
            continue
        assert 0 <= val(g, "gini") <= 1


def test_dentropyn():
    assert val(k3(), "dentropyn") == pytest.approx(1, abs=1e-12)
    hub = star4()
    assert val(hub, "dentropyn") < 1


def test_own():
    assert val(k3(), "own") == pytest.approx(0.5)
    # single dominant node: P = 1/(n+1) -> 0 as inequality grows
    hub = graph_from_pairs([(5, 5)] * 8, 5, weights=WeightType.POSITIVE,
                           tags={"#loop"})
    assert val(hub, "own") == pytest.approx(1 / 6)
    assert val(hub, "own") < val(star4(), "own") < val(k3(), "own") + 1e-12


def test_own_decreases_as_gini_grows():
    # nested family: one hub absorbs progressively more edges
    values = []
    ginis = []
    for extra in (0, 3, 8, 15):
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5)] + [(6, 6)] * extra
        tags = {"#loop"} if extra else set()
        g = graph_from_pairs(pairs, 6, weights=WeightType.POSITIVE, tags=tags)
        values.append(val(g, "own"))
        ginis.append(val(g, "gini"))
    assert all(a < b for a, b in zip(ginis, ginis[1:]))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_assortativity():
    assert math.isnan(val(k3(), "assortativity"))
    assert val(star4(), "assortativity") == pytest.approx(-1)


def test_assortativity_vs_direct_pearson():
    rng = np.random.default_rng(60)
    g = random_simple_undirected(rng, 30, 0.2)
    deg = g.degrees
    xs, ys = [], []
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        xs += [deg[a - 1], deg[b - 1]]
        ys += [deg[b - 1], deg[a - 1]]
    expected = np.corrcoef(xs, ys)[0, 1]
    assert val(g, "assortativity") == pytest.approx(expected, abs=1e-12)


def test_clustering():
    assert val(k3(), "clusco") == 1.0
    assert val(k3(), "clusco2") == 1.0
    assert val(path3(), "clusco") == 0.0
    kb = graph_from_pairs([(1, 1)], 1, fmt=Format.BIPARTITE, n2=1)
    with pytest.raises(IncompatibleGraphError):
        compute(kb, "clusco")


def test_clustering_vs_bruteforce():
    rng = np.random.default_rng(67)
    g = random_simple_undirected(rng, 34, 0.15)
    t, q, s, z, x = brute_counts(g)
    assert val(g, "clusco") == pytest.approx(3 * t / s)


def test_local_clustering():
    assert local_clustering(k3(), 1) == 1.0
    assert local_clustering(star4(), 5) == 0.0
    rng = np.random.default_rng(71)
    g = random_simple_undirected(rng, 20, 0.3)
    pairs = adjacency_set(g)
    adj = {u: set() for u in range(1, 21)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    for u in (1, 5, 11):
        nbrs = sorted(adj[u])
        if len(nbrs) <= 1:
            expected = 0.0
        else:
            links = sum(
                1 for a, b in itertools.combinations(nbrs, 2) if b in adj[a]
            )
            expected = links / math.comb(len(nbrs), 2)
        assert local_clustering(g, u) == pytest.approx(expected)


def test_clusco2_is_mean_of_local():
    rng = np.random.default_rng(72)
    g = random_simple_undirected(rng, 25, 0.2)
    locs = [local_clustering(g, u) for u in range(1, 26)]
    assert val(g, "clusco2") == pytest.approx(np.mean(locs))


def test_signed_clustering():
    allpos = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                              weights=WeightType.SIGNED, w=[1, 1, 1])
    assert val(allpos, "clusco_signed") == val(allpos, "clusco") == 1.0
    assert val(allpos, "clusco_signed_rel") == 1.0
    oneneg = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                              weights=WeightType.SIGNED, w=[-1, 1, 1])
    assert val(oneneg, "clusco_signed_rel") == -1.0
    assert val(oneneg, "clusco_signed") == pytest.approx(-1 / 3 * 3 * 1 / 3 * 3)


def test_signed_clustering_centres_ratings_on_every_record():
    # the loop's rating 9 lifts the mean to 3.5, so all three triangle edges
    # rate below it; without the loop the mean is 5/3 and one rates above
    g = Graph(fmt=Format.UNDIRECTED, weights=WeightType.WEIGHTED, n1=3, n2=None,
              src=np.array([1, 2, 1, 1]), dst=np.array([2, 3, 3, 1]),
              weight=np.array([1.0, 1.0, 3.0, 9.0]), tags={"#loop"})
    assert val(g, "clusco_signed_rel") == -1.0


def test_signed_clustering_pair_shares_one_triple_pass(monkeypatch):
    g = graph_from_pairs([(1, 2), (2, 3), (1, 3), (3, 4)], 4,
                         weights=WeightType.SIGNED, w=[-1, 1, 1, -1])
    calls = []
    count = stats._triangles_per_node

    def counting(pattern, values=None):
        if values is not None:
            calls.append(1)
        return count(pattern, values)

    monkeypatch.setattr(stats, "_triangles_per_node", counting)
    rows = dict(compute_all(g, names=["clusco_signed", "clusco_signed_rel"]))
    assert len(calls) == 1
    assert rows["clusco_signed"].value == val(g, "clusco_signed")
    assert rows["clusco_signed_rel"].value == -1.0


def test_signed_clustering_bounded():
    rng = np.random.default_rng(75)
    for _ in range(25):
        g = random_simple_undirected(rng, 16, 0.3)
        if g.m == 0:
            continue
        signed = graph_from_pairs(
            list(zip(g.src.tolist(), g.dst.tolist())), 16,
            weights=WeightType.SIGNED,
            w=rng.choice([-1.0, 1.0], size=g.m),
        )
        cs = val(signed, "clusco_signed")
        c = val(signed, "clusco")
        if not math.isnan(cs) and not math.isnan(c):
            assert abs(cs) <= c + 1e-12


# -- distances ----------------------------------------------------------------


def test_distance_histogram_small():
    k2 = graph_from_pairs([(1, 2)], 2)
    assert distance_histogram(k2) == {0: 2, 1: 2}
    assert distance_histogram(k3()) == {0: 3, 1: 6}
    assert distance_histogram(path3()) == {0: 3, 1: 4, 2: 2}


def test_distance_stats_k2_and_paths():
    k2 = graph_from_pairs([(1, 2)], 2)
    assert val(k2, "diam") == 1
    assert val(k2, "radius") == 1
    assert val(k2, "meandist") == pytest.approx(0.5)
    assert val(path3(), "diam") == 2
    assert val(path3(), "radius") == 1


def test_distance_stats_vs_floyd_warshall():
    rng = np.random.default_rng(91)
    checked = 0
    while checked < 8:
        n = int(rng.integers(8, 60))
        g = random_simple_undirected(rng, n, rng.uniform(0.08, 0.3))
        from netstats.graph import largest_connected_component

        lcc = largest_connected_component(g)
        if lcc.n < 3:
            continue
        checked += 1
        d = floyd_warshall(lcc)
        flat = np.sort(d.ravel())
        assert val(g, "diam") == int(d.max())
        assert val(g, "radius") == int(d.max(axis=1).min())
        assert val(g, "meandist") == pytest.approx(d.mean(), abs=1e-9)
        # lower median including (u, u) pairs
        k = len(flat)
        assert val(g, "mediandist") == int(flat[(k + 1) // 2 - 1])
        # 90% interpolation on the cumulative non-self curve
        nonself = d[~np.eye(lcc.n, dtype=bool)]
        hops = np.bincount(nonself.astype(int))
        cum = np.cumsum(hops) / hops.sum()
        h = int(np.searchsorted(cum, 0.9))
        prev = cum[h - 1] if h else 0.0
        expected = h - 1 + (0.9 - prev) / (cum[h] - prev)
        assert val(g, "diam_eff") == pytest.approx(expected, abs=1e-9)


def test_distance_double_sweep_bound():
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(97)
    g = random_simple_undirected(rng, 50, 0.08)
    from netstats.graph import largest_connected_component

    lcc = largest_connected_component(g)
    d0 = dijkstra(lcc.pattern, directed=False, unweighted=True, indices=0)
    far = int(np.argmax(d0))
    d1 = dijkstra(lcc.pattern, directed=False, unweighted=True, indices=far)
    assert val(g, "diam") >= int(d1.max())


def test_distance_sampled_mode_flags_estimated():
    rng = np.random.default_rng(101)
    g = random_simple_undirected(rng, 60, 0.15)
    res = compute(g, "meandist", Options(exact_threshold=10, sample_sources=20))
    assert res.method == "estimated"
    assert res.parameters["sources"] == 20
    exact = compute(g, "meandist")
    assert res.value == pytest.approx(exact.value, rel=0.25)


def dijkstra_hops(pattern, sources):
    """Hop histogram summed over sources and eccentricity per source."""
    from scipy.sparse.csgraph import dijkstra

    d = dijkstra(pattern, directed=False, unweighted=True, indices=sources)
    d = np.atleast_2d(d).astype(np.int64)
    return np.bincount(d.ravel()), d.max(axis=1)


def test_distance_sampled_mode_matches_dijkstra():
    from netstats.stats import Workspace, _bfs_counts, _bfs_sources

    rng = np.random.default_rng(103)
    g = random_simple_undirected(rng, 300, 0.03)
    opts = Options(exact_threshold=100, sample_sources=70, seed=5)
    ws = Workspace(g, opts)
    pattern = ws.lcc.pattern
    n = pattern.shape[0]
    assert n > opts.exact_threshold
    sources = _bfs_sources(n, opts)
    expected_sources = np.sort(
        np.random.default_rng(opts.seed).choice(n, size=70, replace=False)
    )
    np.testing.assert_array_equal(sources, expected_sources)
    counts, eccs = _bfs_counts(pattern, sources)
    want_counts, want_eccs = dijkstra_hops(pattern, sources)
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(eccs, want_eccs)
    data = ws.hops
    assert not data.exact and data.sources == 70
    np.testing.assert_array_equal(data.counts, counts * (n / 70))
    np.testing.assert_array_equal(data.eccentricities, eccs)


def connected_graph(rng, n):
    """A random spanning tree plus random chords, so it spans all n nodes."""
    pairs = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    for _ in range(n // 3):
        a, b = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        pairs.add((a, b))
    return graph_from_pairs(sorted(pairs), n)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_bfs_word_and_batch_boundaries(n, monkeypatch):
    from netstats import stats

    g = connected_graph(np.random.default_rng(n), n)
    pattern = g.pattern
    d = floyd_warshall(g).astype(np.int64)
    want_counts, want_eccs = np.bincount(d.ravel()), d.max(axis=1)
    word = 8 * pattern.nnz  # gather bytes of one 64-source word
    for gather_bytes in (1, 2 * word, 10**9):  # 1 word, 2 words, all words per batch
        monkeypatch.setattr(stats, "_GATHER_BYTES", gather_bytes)
        counts, eccs = stats._bfs_counts(pattern, np.arange(n))
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(eccs, want_eccs)
    assert val(g, "diam") == int(d.max())
    assert val(g, "radius") == int(want_eccs.min())


def test_bfs_single_node_and_disconnected(monkeypatch):
    from scipy import sparse

    from netstats import stats
    from netstats.graph import GraphError
    from netstats.stats import _bfs_counts

    counts, eccs = _bfs_counts(sparse.csr_array((1, 1)), np.arange(1))
    np.testing.assert_array_equal(counts, [1])
    np.testing.assert_array_equal(eccs, [0])
    g = graph_from_pairs([(1, 2), (2, 3)], 4)  # node 4 is isolated
    assert eccentricity(g, 4) == 0
    assert eccentricity(g, 1) == 2
    with pytest.raises(GraphError, match="connected graph"):
        _bfs_counts(g.pattern, np.arange(4))
    two = graph_from_pairs([(1, 2), (3, 4)], 4)
    monkeypatch.setattr(stats, "_GATHER_BYTES", 1)
    with pytest.raises(GraphError, match="connected graph"):
        _bfs_counts(two.pattern, np.arange(4))


def test_eccentricity():
    assert eccentricity(star4(), 5) == 1
    assert eccentricity(path3(), 1) == 2
    rng = np.random.default_rng(105)
    g = random_simple_undirected(rng, 25, 0.15)
    from netstats.graph import largest_connected_component

    lcc = largest_connected_component(g)
    d = floyd_warshall(lcc)
    for u in range(1, lcc.n + 1):
        assert eccentricity(lcc, u) == int(d[u - 1].max())


def test_radius_diameter_inequality():
    rng = np.random.default_rng(107)
    for _ in range(5):
        g = random_simple_undirected(rng, 30, 0.15)
        r, d = val(g, "radius"), val(g, "diam")
        assert r <= d <= 2 * r


def greedy_flip_reference(sides, ea, eb, ew, nc, max_flips=50):
    """Recomputes every node's gain from all edges before each flip."""
    ew = ew.astype(np.float64)
    for _ in range(max_flips):
        same = sides[ea] == sides[eb]
        gain = (
            np.bincount(ea[same], weights=ew[same], minlength=nc)
            + np.bincount(eb[same], weights=ew[same], minlength=nc)
            - np.bincount(ea[~same], weights=ew[~same], minlength=nc)
            - np.bincount(eb[~same], weights=ew[~same], minlength=nc)
        )
        node = int(gain.argmax())
        if gain[node] <= 0:
            break
        sides[node] ^= 1
    return sides, int(np.sum(np.where(sides[ea] == sides[eb], ew, 0)))


def test_greedy_flip_matches_full_recompute():
    from netstats.stats import _greedy_flip

    rng = np.random.default_rng(109)
    for _ in range(20):
        nc = int(rng.integers(2, 80))
        m = int(rng.integers(1, 4 * nc))
        a, b = rng.integers(0, nc, size=m), rng.integers(0, nc, size=m)
        keep = a != b
        if not keep.any():
            continue
        pairs = Graph(fmt=Format.UNDIRECTED, weights=WeightType.POSITIVE, n1=nc, n2=None,
                      src=a[keep] + 1, dst=b[keep] + 1,
                      weight=rng.integers(1, 4, size=keep.sum())).pairs
        lo, hi = pairs.endpoints()
        ea, eb, ew = lo - 1, hi - 1, pairs.sums
        sides = rng.integers(0, 2, size=nc).astype(np.int8)
        max_flips = int(rng.integers(1, 60))
        want_sides, want_cost = greedy_flip_reference(sides.copy(), ea, eb, ew, nc, max_flips)
        got_sides, got_cost = _greedy_flip(sides.copy(), ea, eb, ew, nc, max_flips)
        np.testing.assert_array_equal(got_sides, want_sides)
        assert got_cost == want_cost


# -- algebraic ----------------------------------------------------------------


def test_snorm_alcon():
    k2 = graph_from_pairs([(1, 2)], 2)
    assert val(k2, "snorm") == pytest.approx(1.0)
    assert val(k2, "alcon") == pytest.approx(2.0)
    assert val(k3(), "snorm") == pytest.approx(2.0)
    assert val(k3(), "alcon") == pytest.approx(3.0)


def test_snorm_svds_failure_is_a_spectral_error(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from netstats import spectral

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("No convergence (11 iterations, 0/1 eigenvectors converged)",
                                  np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)  # the svds path
    monkeypatch.setattr(spectral, "svds", no_convergence)
    g = graph_from_pairs([(1, 2), (2, 3), (3, 1)], 3, fmt=Format.DIRECTED)
    with pytest.raises(spectral.SpectralError, match="SVD did not converge"):
        compute(g, "snorm")
    (_, row), = compute_all(g, names=["snorm"])
    assert isinstance(row, spectral.SpectralError)


def test_conflict_balanced_vs_unbalanced():
    rng = np.random.default_rng(111)
    g = random_simple_undirected(rng, 20, 0.3)
    sides = rng.choice([-1.0, 1.0], size=20)
    w = np.array([sides[a - 1] * sides[b - 1]
                  for a, b in zip(g.src.tolist(), g.dst.tolist())])
    balanced = graph_from_pairs(list(zip(g.src.tolist(), g.dst.tolist())), 20,
                                weights=WeightType.SIGNED, w=w)
    assert val(balanced, "conflict") <= 1e-8
    frustrated = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                                  weights=WeightType.SIGNED, w=[-1, 1, 1])
    assert val(frustrated, "conflict") > 1e-8


def test_frustration():
    bip = graph_from_pairs([(i, j) for i in (1, 2) for j in (1, 2, 3)], 2,
                           fmt=Format.BIPARTITE, n2=3)
    assert val(bip, "frustration") == 0.0
    assert val(bip, "anticonflict") <= 1e-8
    assert val(k3(), "frustration") == pytest.approx(1 / 3)


def test_frustration_range():
    rng = np.random.default_rng(117)
    for _ in range(10):
        g = random_simple_undirected(rng, 14, 0.4)
        if g.m == 0:
            continue
        assert 0 <= val(g, "frustration") <= 0.5


def test_frustration_matches_exhaustive_on_midsize():
    # 22-node component exceeds the vector-enumeration cutoff; compare against
    # an independent exhaustive check on a graph small enough to brute force
    rng = np.random.default_rng(119)
    g = random_simple_undirected(rng, 10, 0.5)
    pairs = sorted(adjacency_set(g))
    best = min(
        sum(1 for a, b in pairs if ((mask >> (a - 1)) & 1) == ((mask >> (b - 1)) & 1))
        for mask in range(1 << 10)
    )
    assert val(g, "frustration") == pytest.approx(best / len(pairs))


def test_frustration_does_not_depend_on_the_clock(monkeypatch):
    # one frustrated 30-node component: past the enumeration cutoff, so the
    # branch-and-bound search decides the value
    g = random_simple_undirected(np.random.default_rng(3), 30, 0.2)
    assert np.bincount(g.component_labels).max() == 30
    exact = compute(g, "frustration")
    assert exact.method == "exact" and exact.value > 0
    clock = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    late = compute(g, "frustration")
    assert (late.value, late.method) == (exact.value, exact.method)
    # a spent expansion budget keeps the best bipartition found, as an upper bound
    monkeypatch.setattr(stats, "_BB_EXPANSIONS", 10)
    cut = compute(g, "frustration")
    assert cut.method == "estimated" and cut.value >= exact.value


def test_frustration_seed_solve_catches_solver_failures_only(monkeypatch):
    # a 30-node frustrated component: its search is seeded by a spectral solve
    g = random_simple_undirected(np.random.default_rng(3), 30, 0.2)

    def raising(exc):
        def solve(*args, **kwargs):
            raise exc
        return solve

    monkeypatch.setattr(stats, "eig_symmetric", raising(SpectralError("no convergence")))
    assert compute(g, "frustration").value > 0  # searched from an unseeded bipartition
    monkeypatch.setattr(stats, "eig_symmetric", raising(TypeError("a programming error")))
    with pytest.raises(TypeError, match="a programming error"):
        compute(g, "frustration")


def _path(n, first=1):
    return [(first + i, first + i + 1) for i in range(n - 1)]


def _cycle(n, first=1):
    return _path(n, first) + [(first + n - 1, first)]


@pytest.mark.parametrize("n", [50, 51, 400, 3000])
def test_frustration_of_bipartite_paths_and_cycles_is_exactly_zero(n):
    # the spectral bound alone gave 1/(n-1) on a 3000-node path
    for pairs in (_path(n), _cycle(n + n % 2)):
        res = compute(graph_from_pairs(pairs, n + n % 2), "frustration")
        assert (res.value, res.method, res.parameters) == (0.0, "exact", {})


def test_frustration_mixes_bipartite_and_odd_components():
    # a 3000-node path, an even 40-cycle, a 25-cycle (searched), K3 and a
    # 5-cycle (enumerated): one frustrated edge per odd cycle
    parts = [(_path, 3000), (_cycle, 40), (_cycle, 25), (_cycle, 3), (_cycle, 5)]
    pairs, first = [], 1
    for make, size in parts:
        pairs += make(size, first)
        first += size
    g = graph_from_pairs(pairs, first - 1)
    res = compute(g, "frustration")
    assert res.method == "exact"
    assert res.value == 3 / len(pairs)
    # the bipartite components add no frustrated edge
    odd = graph_from_pairs(_cycle(25) + _cycle(3, 26) + _cycle(5, 29), 33)
    assert compute(odd, "frustration").value * odd.m == 3


def test_nonbip():
    assert val(k3(), "nonbip") == pytest.approx(0.5)
    bip = graph_from_pairs([(1, 1), (1, 2), (2, 2)], 2, fmt=Format.BIPARTITE, n2=2)
    assert val(bip, "nonbip") <= 1e-8
    assert val(bip, "nonbipn") <= 1e-8


def test_nonbip_in_range():
    rng = np.random.default_rng(123)
    for _ in range(10):
        g = random_simple_undirected(rng, 20, 0.2)
        if g.m == 0:
            continue
        b = val(g, "nonbip")
        assert -1e-9 <= b < 1


def test_anticonflict_k3():
    # K = D + A of K3 has smallest eigenvalue 1: F~ = 3/(8*3) * 1
    assert val(k3(), "anticonflict") == pytest.approx(3 / 24)


def test_invariant_collection():
    rng = np.random.default_rng(131)
    g = random_simple_undirected(rng, 50, 0.1)
    t = val(g, "triangles")
    s = val(g, "twostars")
    assert 3 * t <= s
    assert val(g, "cocos" if g.is_directed else "coco") <= g.n


def test_strong_component_never_exceeds_weak():
    from gen import random_graph

    rng = np.random.default_rng(137)
    for _ in range(10):
        g = random_graph(rng, Format.DIRECTED, WeightType.POSITIVE)
        if g.n == 0:
            continue
        assert val(g, "cocos") <= val(g, "coco")


def test_dynamic_graph_uses_latest_state():
    g = graph_from_pairs([(1, 2), (2, 3), (1, 2)], 3,
                         weights=WeightType.DYNAMIC, w=[1, 1, -1])
    assert val(g, "volume") == 1
    assert val(g, "size") == 3


def test_statistics_tsv_deterministic():
    rows = compute_all(k3())
    text1 = statistics_tsv(rows)
    text2 = statistics_tsv(compute_all(k3()))
    assert text1 == text2
    assert text1.splitlines()[0] == "name\tvalue\tcomputed_on\tmethod\tparameters"
    assert "reciprocity\tNA" in text1  # undirected input: NA row with reason


def _no_records(fmt, weights):
    bipartite = fmt is Format.BIPARTITE
    return Graph(fmt=fmt, weights=weights, n1=3, n2=2 if bipartite else None,
                 src=np.zeros(0), dst=np.zeros(0))


def test_compute_all_covers_registry():
    for g in [k3()] + [_no_records(f, w) for f, w in ALL_COMBOS]:
        rows = compute_all(g)
        assert [name for name, _ in rows] == list(statistic_names())
        assert len(rows) == 41
        # a row may be NA, but not from a programming error
        assert not [name for name, row in rows if isinstance(row, TypeError)], g
        if not len(g.src):
            assert dict(rows)["weight"].value == 0, g


def test_lorenz_curve_endpoints():
    x, y = lorenz_curve(np.array([1, 1, 2, 4]))
    assert (x[0], y[0]) == (0, 0)
    assert (x[-1], y[-1]) == (1, 1)
