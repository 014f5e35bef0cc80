import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from netstats import graph
from netstats.graph import (
    Format,
    Graph,
    GraphError,
    IncompatibleGraphError,
    InvalidNodeError,
    WeightType,
    absolute,
    components,
    dedupe,
    largest_connected_component,
    latest_state,
    negate,
    strip_weights,
    undirected,
)

from gen import ALL_COMBOS, graph_from_pairs, random_graph


def triangle():
    return graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3)


def test_degree_triangle():
    g = triangle()
    assert [g.degree(u) for u in (1, 2, 3)] == [2, 2, 2]


def test_degree_counts_incident_edges_not_neighbors():
    g = graph_from_pairs([(1, 2), (1, 2)], 2, weights=WeightType.POSITIVE)
    assert g.degree(1) == 2


def test_degree_star_by_enumeration():
    pairs = [(5, leaf) for leaf in (1, 2, 3, 4)]
    g = graph_from_pairs(pairs, 5)
    # oracle: count incident edge endpoints directly
    expected = sum(1 for (a, b) in pairs for x in (a, b) if x == 5)
    assert g.degree(5) == expected == 4


def test_degree_invalid_node():
    with pytest.raises(InvalidNodeError):
        triangle().degree(9)


def test_loop_counts_twice():
    g = graph_from_pairs([(1, 1), (1, 2)], 2, tags={"#loop"})
    assert g.degree(1) == 3
    assert g.degrees.sum() == 2 * g.m


def test_loop_without_tag_rejected():
    with pytest.raises(GraphError):
        graph_from_pairs([(1, 1)], 1)


def test_in_out_degree():
    g = graph_from_pairs([(1, 2)], 2, fmt=Format.DIRECTED)
    assert g.in_out_degree(1) == (1, 0)
    two_cycle = graph_from_pairs([(1, 2), (2, 1)], 2, fmt=Format.DIRECTED)
    assert two_cycle.in_out_degree(1) == (1, 1)


def test_in_out_degree_sums(rng=np.random.default_rng(7)):
    g = random_graph(rng, Format.DIRECTED, WeightType.POSITIVE)
    assert g.out_degrees.sum() == g.in_degrees.sum() == g.m


def test_in_out_degree_requires_directed():
    with pytest.raises(IncompatibleGraphError):
        triangle().in_out_degree(1)


def test_node_weight_signed():
    g = graph_from_pairs([(1, 2), (1, 3)], 3, weights=WeightType.SIGNED, w=[-1, 2])
    assert g.node_weight(1) == 3.0


def test_node_weight_equals_degree_when_unweighted():
    g = triangle()
    assert all(g.node_weight(u) == g.degree(u) for u in (1, 2, 3))


def test_node_weight_rating_centered():
    # ratings 5 and 3 at node 1, mu = 4: |5-4| + |3-4| = 2
    g = graph_from_pairs([(1, 2), (1, 3)], 3, weights=WeightType.WEIGHTED, w=[5, 3])
    assert g.rating_mean == 4.0
    assert g.node_weight(1) == pytest.approx(2.0)


def test_pair_weight_cases():
    assert triangle().pair_weight(1, 2) == 1.0
    g = graph_from_pairs([(1, 2)] * 3, 2, weights=WeightType.POSITIVE)
    assert g.pair_weight(1, 2) == 3.0
    assert g.pair_weight(2, 1) == 3.0
    rating = graph_from_pairs([(1, 2), (3, 4)], 4, weights=WeightType.WEIGHTED, w=[5, 2])
    assert rating.pair_weight(1, 2) == pytest.approx(5 - 3.5)
    assert rating.pair_weight(1, 4) == 0.0


def test_pair_weight_symmetric_undirected(rng=np.random.default_rng(3)):
    g = random_graph(rng, Format.UNDIRECTED, WeightType.MULTISIGNED)
    for u, v in zip(g.src[:10], g.dst[:10]):
        assert g.pair_weight(int(u), int(v)) == g.pair_weight(int(v), int(u))
    # bit for bit, also where parallel edges carry non-integer weights
    for fmt, weights in ALL_COMBOS:
        if fmt is Format.DIRECTED:
            continue
        for seed in range(50):
            g = random_graph(np.random.default_rng(seed), fmt, weights)
            if weights.is_rating and not len(g.src):
                continue  # a rating graph without records has no weights to centre
            a = g.adjacency
            assert np.array_equal(a.toarray(), a.T.toarray()), (fmt, weights, seed)


def test_strip_weights():
    signed = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                              weights=WeightType.SIGNED, w=[-1, 1, -1])
    bare = strip_weights(signed)
    assert bare.weights is WeightType.UNWEIGHTED
    assert bare.weight is None
    assert bare == strip_weights(bare)  # idempotent
    multi = graph_from_pairs([(1, 2), (1, 2)], 2,
                             weights=WeightType.MULTIWEIGHTED, w=[4, 5])
    stripped = multi and strip_weights(multi)
    assert stripped.weights is WeightType.POSITIVE
    assert len(stripped.src) == 2  # duplicate pair kept


def test_dedupe():
    g = graph_from_pairs([(1, 2)] * 3, 2, weights=WeightType.POSITIVE)
    d = dedupe(g)
    assert len(d.src) == 1 and d.weights is WeightType.UNWEIGHTED
    simple = triangle()
    assert dedupe(simple) is simple
    assert dedupe(dedupe(g)) == dedupe(g)


def test_dedupe_dynamic_replays_events():
    g = graph_from_pairs([(1, 2)] * 3, 2, weights=WeightType.DYNAMIC,
                         w=[1, -1, 1])
    d = dedupe(g)
    assert len(d.src) == 1


def test_absolute():
    g = graph_from_pairs([(1, 2), (1, 3)], 3, weights=WeightType.SIGNED, w=[-1, 2])
    a = absolute(g)
    assert list(a.weight) == [1.0, 2.0]
    allpos = graph_from_pairs([(1, 2)], 2, weights=WeightType.SIGNED, w=[2])
    assert list(absolute(allpos).weight) == [2.0]
    with pytest.raises(IncompatibleGraphError):
        absolute(triangle())


def test_absolute_of_rating_uses_centered_weights():
    g = graph_from_pairs([(1, 2), (2, 3)], 3, weights=WeightType.WEIGHTED, w=[5, 2])
    a = absolute(g)
    assert list(a.weight) == pytest.approx([1.5, 1.5])


def test_negate():
    g = triangle()
    neg = negate(g)
    assert neg.weights is WeightType.SIGNED
    assert list(neg.weight) == [-1.0, -1.0, -1.0]
    again = negate(neg)
    assert np.allclose(again.effective_weights, g.effective_weights)
    signed = graph_from_pairs([(1, 2), (1, 3)], 3, weights=WeightType.SIGNED, w=[-1, 2])
    assert list(negate(signed).weight) == [1.0, -2.0]


def test_latest_state():
    present = graph_from_pairs([(1, 2)], 2, weights=WeightType.DYNAMIC, w=[1])
    assert len(latest_state(present).src) == 1
    gone = graph_from_pairs([(1, 2)] * 2, 2, weights=WeightType.DYNAMIC, w=[1, -1])
    assert len(latest_state(gone).src) == 0
    back = graph_from_pairs([(1, 2)] * 3, 2, weights=WeightType.DYNAMIC, w=[1, -1, 1])
    assert len(latest_state(back).src) == 1
    with pytest.raises(IncompatibleGraphError):
        latest_state(triangle())


def test_static_is_the_latest_state_of_an_event_log_only():
    log = graph_from_pairs([(1, 2)] * 3 + [(2, 3)], 3, weights=WeightType.DYNAMIC,
                           w=[1, -1, 1, -1])
    assert log.static == latest_state(log)
    assert log.static is log.static  # replayed once per graph
    assert log.pattern is log.static.pattern and log.adjacency is log.static.adjacency
    assert strip_weights(log) is log.static and dedupe(log) is log.static
    g = triangle()
    assert g.static is g
    assert g.static.static is g
    # a graph holds no reference to itself, so it is not a reference cycle
    assert all(v is not g for v in vars(g).values())


def test_latest_state_orders_by_timestamp():
    g = Graph(fmt=Format.UNDIRECTED, weights=WeightType.DYNAMIC, n1=2, n2=None,
              src=np.array([1, 1]), dst=np.array([2, 2]),
              weight=np.array([1.0, -1.0]), timestamp=np.array([5.0, 2.0]))
    # the -1 event happened first; the +1 at t=5 wins
    assert len(latest_state(g).src) == 1


def test_largest_connected_component():
    g = graph_from_pairs([(1, 2), (2, 3), (4, 5)], 5)
    lcc = largest_connected_component(g)
    assert lcc.n == 3 and len(lcc.src) == 2
    assert list(lcc.node_origin) == [1, 2, 3]
    connected = triangle()
    same = largest_connected_component(connected)
    assert same.n == 3 and same.m == 3


def test_lcc_bipartite_counts_both_sides():
    # components: {L1, R1, R2} and {L2, R3}; component size counts both sides
    g = graph_from_pairs([(1, 1), (1, 2), (2, 3)], 2, fmt=Format.BIPARTITE, n2=3)
    lcc = largest_connected_component(g)
    assert (lcc.n1, lcc.n2) == (1, 2)
    assert lcc.n1 + lcc.n2 == lcc.n == 3


def test_lcc_is_connected_and_largest(rng=np.random.default_rng(11)):
    from scipy.sparse.csgraph import connected_components

    for _ in range(20):
        g = random_graph(rng, Format.UNDIRECTED, WeightType.UNWEIGHTED)
        if g.n == 0:
            continue
        lcc = largest_connected_component(g)
        ncomp, labels = connected_components(lcc.pattern, directed=False)
        # every retained node is in one component (isolated nodes only if n==1)
        assert ncomp == 1 or lcc.n == 1
        sizes = np.bincount(g.component_labels)
        assert lcc.n == sizes.max()


def _scipy_labels(g):
    from scipy.sparse.csgraph import connected_components

    return connected_components(g.pattern, directed=False)[1]


def test_component_labels_match_scipy_on_every_format_and_weight_type():
    rng = np.random.default_rng(23)
    seen = {"isolated": 0, "loop": 0, "dropped": 0}
    for fmt, weights in ALL_COMBOS:
        for sizes in [(30, 80)] * 6 + [(40, 15)] * 6:  # sparse ones leave nodes isolated
            g = random_graph(rng, fmt, weights, *sizes)
            assert np.array_equal(g.component_labels, _scipy_labels(g))
            assert g.component_labels.dtype == np.int64
            static = g.static
            seen["isolated"] += bool(np.any(static.degrees == 0))
            seen["loop"] += bool(np.any(static.src == static.dst)) and not g.is_bipartite
            seen["dropped"] += len(static.pairs.keys) < len(g.pairs.keys)
    assert min(seen.values()) >= 5, seen


class _CountingMinimum:
    """``np.minimum`` whose ``at`` (one hooking round of the labeller) is counted."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args):
        return np.minimum(*args)

    def at(self, *args):
        self.rounds += 1
        return np.minimum.at(*args)


@pytest.mark.parametrize("order", ["sorted", "reversed", "random", "interleaved"])
def test_component_labels_of_a_million_node_path(order, monkeypatch):
    n = 1_000_000
    zigzag = np.empty(n, dtype=np.int64)  # 1, n, 2, n - 1, ...
    zigzag[0::2], zigzag[1::2] = np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)
    visit = {"sorted": np.arange(n), "reversed": np.arange(n)[::-1],
             "random": np.random.default_rng(5).permutation(n), "interleaved": zigzag}[order]
    # one more node, isolated, so that two components are numbered
    g = Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED, n1=n + 1, n2=None,
              src=visit[:-1] + 1, dst=visit[1:] + 1)
    g.pairs  # built before numpy is swapped for the counting one
    minimum = _CountingMinimum()
    monkeypatch.setattr(graph, "np", SimpleNamespace(**{**vars(np), "minimum": minimum}))
    labels = g.component_labels
    monkeypatch.undo()
    assert np.array_equal(labels, _scipy_labels(g))
    assert np.bincount(labels).tolist() == [n, 1]
    assert 1 <= minimum.rounds <= 15


@pytest.mark.parametrize("fmt, weights", ALL_COMBOS)
def test_components_hold_the_records_inside_them(fmt, weights):
    rng = np.random.default_rng([7, ALL_COMBOS.index((fmt, weights))])
    for _ in range(6):
        g = random_graph(rng, fmt, weights, n_max=12, m_max=20)
        labels = g.component_labels
        lcc = largest_connected_component(g)
        pieces = components(g, range(labels.max() + 1))
        best = pieces[np.bincount(labels).argmax()]
        assert lcc == best and np.array_equal(lcc.node_origin, best.node_origin)
        u, v = g.endpoints()
        for c, comp in enumerate(pieces):
            [alone] = components(g, [c])
            assert alone == comp and np.array_equal(alone.node_origin, comp.node_origin)
            nodes = np.flatnonzero(labels == c) + 1
            assert np.array_equal(comp.node_origin, nodes)
            # an event log's components come from its latest state, so an
            # event may leave the component; it is dropped
            inside = np.isin(u, nodes) & np.isin(v, nodes)
            cu, cv = comp.endpoints()
            assert np.array_equal(comp.node_origin[cu - 1], u[inside])
            assert np.array_equal(comp.node_origin[cv - 1], v[inside])
            if inside.any() and g.weight is not None:
                assert np.array_equal(comp.weight, g.weight[inside])


def _calls(node, owner=None):
    """``(innermost enclosing function, call)`` for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls(child, owner)


def test_one_component_extractor_and_one_bipartivity_base():
    renumbered, stripped = [], []
    for path in sorted(Path(graph.__file__).parent.glob("*.py")):
        for owner, call in _calls(ast.parse(path.read_text())):
            if any(k.arg == "node_origin" for k in call.keywords):
                renumbered.append(f"{path.name}:{owner}")
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if path.name == "stats.py" and name == "strip_weights":
                stripped.append(owner)
    assert renumbered == ["graph.py:components"]
    assert stripped == ["_bipartivity_base"]


def test_statistics_build_matrices_only_in_the_triangle_pass():
    # every other statistic reads the matrices its graph already holds
    path = Path(graph.__file__).parent / "stats.py"
    builders = {owner for owner, call in _calls(ast.parse(path.read_text()))
                if getattr(call.func, "attr", None) in ("csr_array", "coo_array")}
    assert builders == {"_triangles_per_node"}


def test_handshake_property(rng=np.random.default_rng(5)):
    for fmt, weights in ALL_COMBOS:
        g = random_graph(rng, fmt, weights)
        assert g.degrees.sum() == 2 * g.m


def test_transforms_preserve_node_counts(rng=np.random.default_rng(19)):
    g = random_graph(rng, Format.UNDIRECTED, WeightType.MULTISIGNED)
    for out in (strip_weights(g), dedupe(g), absolute(g), negate(g)):
        assert (out.n1, out.n2) == (g.n1, g.n2)


def _fields(g, **changes):
    """A graph built field by field, as the transforms once built theirs."""
    fields = dict(fmt=g.fmt, weights=g.weights, n1=g.n1, n2=g.n2, src=g.src, dst=g.dst,
                  weight=g.weight, timestamp=g.timestamp, tags=g.tags)
    return Graph(**{**fields, **changes})


def _old_strip_weights(g):
    g = g.static
    if g.weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        return g
    kind = WeightType.POSITIVE if g.weights.allows_multi else WeightType.UNWEIGHTED
    weight = np.ones(len(g.src)) if g.timestamp is not None else None
    return _fields(g, weights=kind, weight=weight)


def _old_absolute(g):
    w = np.abs(g.effective_weights)
    kind = WeightType.MULTIPOSWEIGHTED if g.weights.allows_multi else WeightType.POSWEIGHTED
    tags = (g.tags | {"#zeroweight"}) if np.any(w == 0) else g.tags
    return _fields(g, weights=kind, weight=w, tags=tags)


def _old_negate(g):
    src, dst, ts = g.src, g.dst, g.timestamp
    if g.weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        mult = g.multiplicities
        src, dst = np.repeat(src, mult), np.repeat(dst, mult)
        ts = None if ts is None else np.repeat(ts, mult)
        w = -np.ones(len(src))
    else:
        w = -g.effective_weights
    kind = WeightType.MULTISIGNED if g.weights.allows_multi else WeightType.SIGNED
    return _fields(g, weights=kind, src=src, dst=dst, weight=w, timestamp=ts)


def _old_as_undirected(g):
    if not g.is_directed:
        return g
    remap = {WeightType.UNWEIGHTED: WeightType.POSITIVE,
             WeightType.POSWEIGHTED: WeightType.MULTIPOSWEIGHTED,
             WeightType.SIGNED: WeightType.MULTISIGNED,
             WeightType.WEIGHTED: WeightType.MULTIWEIGHTED}
    return _fields(g, fmt=Format.UNDIRECTED, weights=remap.get(g.weights, g.weights))


@pytest.mark.parametrize("fmt, weights", ALL_COMBOS)
def test_transforms_of_an_lcc_keep_node_origin(fmt, weights):
    for seed in range(8):
        g = random_graph(np.random.default_rng(seed), fmt, weights, n_max=12, m_max=20)
        if not len(g.src) or g.static.n == 0:
            continue
        lcc = largest_connected_component(g)
        transforms = [(strip_weights, _old_strip_weights), (undirected, _old_as_undirected)]
        if weights.allows_negative:
            transforms.append((absolute, _old_absolute))
        if weights is not WeightType.DYNAMIC:
            transforms.append((negate, _old_negate))
        for new, old in transforms:
            out = new(lcc)
            assert out == old(lcc), (new.__name__, seed)
            assert np.array_equal(out.node_origin, lcc.node_origin), (new.__name__, seed)


def test_lcc_of_event_log_drops_events_leaving_the_component():
    # the removed edge 3-4 joined the latest state's components {1, 2, 3} and {4, 5}
    g = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (3, 4)], 5,
                         weights=WeightType.DYNAMIC, w=[1, 1, 1, 1, -1])
    lcc = largest_connected_component(g)
    assert (lcc.n, list(lcc.node_origin)) == (3, [1, 2, 3])
    assert list(zip(lcc.src.tolist(), lcc.dst.tolist())) == [(1, 2), (2, 3)]
    assert list(lcc.weight) == [1.0, 1.0]
