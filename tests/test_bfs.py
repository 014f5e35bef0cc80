"""The direction-optimising bit-parallel BFS (``stats._bfs_counts``) against
scipy's unweighted shortest paths, and the chunking helper it shares."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components, shortest_path

from netstats import stats
from netstats.graph import GraphError
from netstats.stats import Options, Workspace, _bfs_counts, _bfs_sources

from gen import ALL_COMBOS, graph_from_pairs, random_graph


def shortest_path_hops(pattern, sources):
    """Hop histogram summed over sources and eccentricity per source."""
    d = shortest_path(pattern, directed=False, unweighted=True, indices=sources)
    d = np.atleast_2d(d).astype(np.int64)
    return np.bincount(d.ravel()), d.max(axis=1)


@pytest.fixture(params=["switch", "push", "pull"])
def direction(request, monkeypatch):
    """Run the kernel with its own switch, or push / pull at every level."""
    cost = {"switch": stats._PUSH_COST, "push": 0.0, "pull": math.inf}[request.param]
    monkeypatch.setattr(stats, "_PUSH_COST", cost)
    calls = {"push": 0, "pull": 0}
    for name in calls:
        fn = getattr(stats, f"_{name}")

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(stats, f"_{name}", counted)
    return request.param, calls


def assert_matches(pattern, sources):
    counts, eccs = _bfs_counts(pattern, sources)
    want_counts, want_eccs = shortest_path_hops(pattern, sources)
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(eccs, want_eccs)


def test_generated_graphs_every_combo(direction):
    rng = np.random.default_rng(601)
    for fmt, weights in ALL_COMBOS:
        for _ in range(3):
            g = random_graph(rng, fmt, weights, n_max=40, m_max=120)
            ws = Workspace(g)
            pattern = ws.lcc.pattern
            assert_matches(pattern, np.arange(pattern.shape[0]))
            full = ws.pattern
            if connected_components(full, directed=False)[0] > 1:
                with pytest.raises(GraphError, match="connected graph"):
                    _bfs_counts(full, np.arange(full.shape[0]))
            else:
                assert_matches(full, np.arange(full.shape[0]))


def k_3_200():
    return graph_from_pairs([(a, b) for a in (1, 2, 3) for b in range(4, 204)], 203)


SHAPES = {
    "path-300": lambda: graph_from_pairs([(i, i + 1) for i in range(1, 300)], 300),
    "star": lambda: graph_from_pairs([(1, i) for i in range(2, 202)], 201),
    "k-3-200": k_3_200,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_edge_shapes(shape, direction):
    mode, calls = direction
    pattern = SHAPES[shape]().pattern
    n = pattern.shape[0]
    assert_matches(pattern, np.arange(n))
    assert_matches(pattern, np.array([0]))
    assert_matches(pattern, np.array([n - 1]))
    if mode == "pull":
        assert calls["push"] == 0
    else:
        assert calls["push"] > 0
    if mode == "switch" and shape == "path-300":
        assert calls["pull"] > 0  # the dense middle of 300 sources pulls


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_word_and_batch_boundaries(n, direction, monkeypatch):
    rng = np.random.default_rng(n)
    pairs = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}  # a spanning tree
    pairs |= {tuple(sorted(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()))
              for _ in range(n // 3)}
    pattern = graph_from_pairs(sorted(pairs), n).pattern
    word = 8 * pattern.nnz  # gather bytes of one 64-source word
    for gather_bytes in (1, 2 * word, 10**9):  # 1 word, 2 words, all words per batch
        monkeypatch.setattr(stats, "_GATHER_BYTES", gather_bytes)
        assert_matches(pattern, np.arange(n))
        assert_matches(pattern, np.arange(0, n, 2))  # a partial last word


def test_sampled_mode(direction):
    rng = np.random.default_rng(602)
    n = 400
    pairs = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    pairs |= {(int(a), int(b)) for a, b in rng.integers(1, n + 1, (300, 2)) if a < b}
    g = graph_from_pairs(sorted(pairs), n)
    opts = Options(exact_threshold=100, sample_sources=90, seed=7)
    data = Workspace(g, opts).hops
    sources = _bfs_sources(n, opts)
    assert len(sources) == 90 and not data.exact
    want_counts, want_eccs = shortest_path_hops(g.pattern, sources)
    np.testing.assert_array_equal(data.counts, want_counts * (n / 90))
    np.testing.assert_array_equal(data.eccentricities, want_eccs)


def test_disconnected_input_raises(direction, monkeypatch):
    two = graph_from_pairs([(1, 2), (2, 3), (4, 5)], 6)  # node 6 is isolated too
    for gather_bytes in (1, 10**9):
        monkeypatch.setattr(stats, "_GATHER_BYTES", gather_bytes)
        with pytest.raises(GraphError, match="connected graph"):
            _bfs_counts(two.pattern, np.arange(6))
        with pytest.raises(GraphError, match="connected graph"):
            _bfs_counts(two.pattern, np.array([5]))


def greedy_chunks(work, bound):
    """The former row-by-row loop of ``_row_chunks``."""
    n = len(work)
    start = 0
    while start < n:
        end = start + 1
        acc = int(work[start])
        while end < n and acc + work[end] <= bound:
            acc += int(work[end])
            end += 1
        yield start, end
        start = end


def test_row_chunks_match_greedy_loop():
    rng = np.random.default_rng(603)
    bound = stats._CHUNK_WORK
    cases = [np.zeros(0, dtype=np.int64), np.zeros(7, dtype=np.int64),
             np.array([bound + 1]), np.array([bound, 0, 0, 1, bound, 0]),
             np.array([0, 0, 3 * bound, 0, 1])]
    for _ in range(200):
        k = int(rng.integers(1, 60))
        work = rng.integers(0, bound // 3, size=k)
        work[rng.random(k) < 0.3] = 0
        work[rng.random(k) < 0.1] = bound + rng.integers(0, bound, size=k)[0]
        cases.append(work)
    for work in cases:
        assert list(stats._row_chunks(work)) == list(greedy_chunks(work, bound))
        assert list(stats._row_chunks(work.astype(np.float64))) == \
            list(greedy_chunks(work.astype(np.float64), bound))
        for small in (1, 5, 1000):
            assert list(stats._row_chunks(work % 7, small)) == \
                list(greedy_chunks(work % 7, small))
