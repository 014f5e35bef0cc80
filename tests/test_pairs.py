"""Every consumer of the pair index against a Python-set brute force."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from netstats.graph import (
    Format, Graph, PairIndex, WeightType, dedupe, latest_state, undirected,
)
from netstats.io import Header, validate
from netstats.plots import plot_multiplicity
from netstats.stats import (
    DEFAULT_OPTIONS,
    _frustration_exact,
    _min_frustrated_edges,
    Workspace,
    compute,
    stat_frustration,
)

from gen import ALL_COMBOS, random_graph

SEEDS = range(4)


def combined(g):
    off = g.n1 if g.is_bipartite else 0
    return [(int(u), int(v) + off) for u, v in zip(g.src, g.dst)]


def pair_key(g, u, v):
    return (u, v) if g.is_directed else (min(u, v), max(u, v))


def replay(g):
    """Records of the latest state, by brute force over the event log."""
    ts = g.timestamp if g.timestamp is not None else np.zeros(len(g.src))
    replayed = sorted(range(len(g.src)), key=lambda i: (ts[i], i))
    last = {}
    for i in replayed:
        last[pair_key(g, *combined(g)[i])] = i
    kept = set(i for i in last.values() if g.weight[i] > 0)
    return [(int(g.src[i]), int(g.dst[i])) for i in replayed if i in kept]


def static(g):
    return latest_state(g) if g.weights is WeightType.DYNAMIC else g


def records(g):
    return list(zip(g.src.tolist(), g.dst.tolist()))


def cases():
    for fmt, weights in ALL_COMBOS:
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            g = random_graph(rng, fmt, weights, n_max=12, m_max=60)
            if g.has_timestamps:  # out of input order, with ties
                g = g.select(rng.permutation(len(g.src)))
                g = dataclasses.replace(g, timestamp=g.timestamp // 200_000)
            yield pytest.param(g, id=f"{fmt.value}-{weights.value}-{seed}")


@pytest.mark.parametrize("g", cases())
def test_pair_index_consumers_match_brute_force(g):
    s = static(g)
    pairs = {pair_key(s, u, v) for u, v in combined(s)}

    want = {(a - 1, b - 1) for a, b in pairs if a != b}
    want |= {(b, a) for a, b in want}
    coo = s.pattern.tocoo()
    assert set(zip(coo.row.tolist(), coo.col.tolist())) == want
    assert set(coo.data.tolist()) <= {1}
    assert g.pattern.nnz == len(want)

    if g.weights is WeightType.DYNAMIC:
        assert records(latest_state(g)) == replay(g)
    if g.weights.allows_multi:
        firsts, seen = [], set()
        for i, (u, v) in enumerate(combined(g)):
            if pair_key(g, u, v) not in seen:
                seen.add(pair_key(g, u, v))
                firsts.append(i)
        expected = replay(g) if g.weights is WeightType.DYNAMIC else [
            (int(g.src[i]), int(g.dst[i])) for i in firsts]
        assert records(dedupe(g)) == expected

    if not (s.weights.is_rating and not len(s.src)):  # no weights to centre
        sums = {}
        for (u, v), w in zip(combined(s), s.effective_weights.tolist()):
            key = pair_key(s, u, v)
            sums[key] = sums.get(key, 0.0) + w  # in input order
        want = np.zeros((s.n, s.n))
        for (a, b), w in sums.items():
            want[a - 1, b - 1] = w
            if not s.is_directed:
                want[b - 1, a - 1] = w
        entries = sum(1 if s.is_directed or a == b else 2 for a, b in sums)
        assert g.adjacency.nnz == entries
        assert np.array_equal(g.adjacency.toarray(), want)

    assert compute(g, "uniquevolume").value == len(pairs)
    loops = s.allows_loops or any(u == v for u, v in combined(s) if not s.is_bipartite)
    n = s.n
    if s.is_bipartite:
        fill = len(pairs) / (s.n1 * s.n2)
    elif s.is_directed:
        fill = len(pairs) / (n * n if loops else n * (n - 1))
    else:
        fill = 2 * len(pairs) / (n * (n + 1) if loops else n * (n - 1))
    assert compute(g, "fill").value == pytest.approx(fill)

    if s.is_directed and s.m:
        mult = s.multiplicities
        back = sum(int(mult[i]) for i, (u, v) in enumerate(combined(s)) if (v, u) in pairs)
        assert compute(g, "reciprocity").value == pytest.approx(back / s.m)

    if g.weights.allows_multi:
        sums = Counter()
        for i, (u, v) in enumerate(combined(g)):
            sums[pair_key(g, u, v)] += int(g.multiplicities[i])
        hist = sorted(Counter(sums.values()).items())
        series = plot_multiplicity(Workspace(g))
        got = list(zip(series.columns["multiplicity"].tolist(),
                       series.columns["count"].tolist()))
        assert got == hist


RECIPROCAL_ERRORS = ("#nonreciprocal set but reciprocal edges exist",
                     "directed network without #acyclic needs two reciprocal edge pairs")


@pytest.mark.parametrize("weights", list(WeightType))
@pytest.mark.parametrize("seed", range(12))
def test_validate_reciprocal_rule_matches_brute_force(weights, seed):
    g = random_graph(np.random.default_rng(seed), Format.DIRECTED, weights,
                     n_max=5, m_max=12)
    pairs = set(combined(g))
    reciprocal = sum(1 for u, v in pairs if u != v and (v, u) in pairs) // 2
    base = g.tags - {"#acyclic"}
    for extra in ((), ("#acyclic",), ("#nonreciprocal",)):
        tagged = dataclasses.replace(g, tags=base | set(extra))
        errors = {f.message for f in validate(tagged, Header(g.fmt, g.weights))
                  if f.severity == "error"}
        want = set()
        if "#nonreciprocal" in extra and reciprocal > 0:
            want.add(RECIPROCAL_ERRORS[0])
        if not extra and reciprocal < 2:
            want.add(RECIPROCAL_ERRORS[1])
        assert errors & set(RECIPROCAL_ERRORS) == want


def islands(rng, count, signed, directed=False):
    """Disjoint random components of 2-12 nodes with parallel edges, and
    the aggregated edges of each component in its own node numbering.
    Directed islands orient each record at random, so that an edge of the
    underlying graph may be parallel or reciprocal arcs."""
    src, dst, components, offset = [], [], [], 0
    for _ in range(count):
        size = int(rng.integers(2, 13))
        tree = [(int(rng.integers(0, i)), i) for i in range(1, size)]
        extra = [tuple(int(x) for x in rng.choice(size, 2, replace=False))
                 for _ in range(int(rng.integers(0, 2 * size)))]
        edges = Counter((min(a, b), max(a, b)) for a, b in tree + extra)
        components.append((size, edges))
        src += [offset + a + 1 for a, _ in tree + extra]
        dst += [offset + b + 1 for _, b in tree + extra]
        offset += size
    src, dst = np.array(src), np.array(dst)
    fmt = Format.UNDIRECTED
    if directed:
        fmt = Format.DIRECTED
        flip = rng.random(len(src)) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    weights = WeightType.MULTISIGNED if signed else WeightType.POSITIVE
    w = rng.choice([-1.0, 1.0], len(src)) if signed else np.ones(len(src))
    g = Graph(fmt=fmt, weights=weights, n1=offset, n2=None, src=src, dst=dst, weight=w)
    return g, components


@pytest.mark.parametrize("seed, directed", [pytest.param(s, False, id=str(s)) for s in SEEDS]
                         + [pytest.param(s, True, id=f"directed-{s}") for s in SEEDS])
def test_frustration_over_many_components_matches_exact(seed, directed):
    g, components = islands(np.random.default_rng(seed), 150, bool(seed % 2), directed)
    if directed:
        arcs = g.pairs
        assert arcs.reciprocated().any() and (arcs.sums > 1).any()
    want = 0
    for size, edges in components:
        ea, eb = (np.array(x) for x in zip(*edges))
        want += _frustration_exact(size, ea, eb, np.array(list(edges.values())))
    base = undirected(dataclasses.replace(g, weights=WeightType.POSITIVE, weight=None))
    assert _min_frustrated_edges(base, DEFAULT_OPTIONS) == (want, True)
    assert compute(g, "frustration").value == pytest.approx(want / len(g.src))


def test_frustration_cuts_out_its_components_in_one_pass(monkeypatch):
    # 2,000 disjoint triangles: an unweighted loopless undirected graph is its
    # own bipartivity base, and each of its components is odd
    tri = np.arange(2000)[:, None] * 3 + np.array([1, 2, 3])
    base = Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED, n1=6000, n2=None,
                 src=tri.ravel(), dst=np.roll(tri, -1, axis=1).ravel())
    select, rows_seen = Graph.select, []

    def counting_select(self, rows=slice(None), **fields):
        rows_seen.append(len(self.src) if isinstance(rows, slice) else np.size(rows))
        return select(self, rows, **fields)

    monkeypatch.setattr(Graph, "select", counting_select)
    assert _min_frustrated_edges(base, DEFAULT_OPTIONS) == (2000, True)
    # one whole-graph mask per component would be 2,000 x 6,000 entries
    assert len(rows_seen) == 2000 and sum(rows_seen) <= len(base.src) == 6000


def test_frustration_indexes_only_its_odd_components(monkeypatch):
    # a directed 2,000-node path and, apart from it, one directed triangle
    path = np.arange(1, 2000)
    g = Graph(fmt=Format.DIRECTED, weights=WeightType.UNWEIGHTED, n1=2003, n2=None,
              src=np.concatenate([path, [2001, 2002, 2003]]),
              dst=np.concatenate([path + 1, [2002, 2003, 2001]]))
    ws = Workspace(g)
    ws.pattern, ws.lcc  # the passes a batch run has made before frustration
    build, indexed = PairIndex.build.__func__, []

    def counting_build(cls, keys, base, weights):
        indexed.append(len(keys))
        return build(cls, keys, base, weights)

    monkeypatch.setattr(PairIndex, "build", classmethod(counting_build))
    assert stat_frustration(ws).value == 1 / 2002
    # only the triangle's three records are grouped by pair
    assert sum(indexed) <= 3
