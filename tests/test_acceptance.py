"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. The throughput check builds a million-edge graph; expect the full
module to take around a minute.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from netstats import spectral
from netstats.graph import (
    Format,
    WeightType,
    largest_connected_component,
)
from netstats.io import parse_out, write_out
from netstats.spectral import MatrixKind, build_operator, eig_general, eig_symmetric, svd_biadjacency
from netstats.stats import Options, Workspace, compute
from netstats.cli import main

from gen import ALL_COMBOS, graph_from_pairs, random_graph, random_simple_undirected


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_format_fidelity_roundtrip():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    count = 0
    ok = True
    while count < 200:
        for fmt, weights in ALL_COMBOS:
            if count >= 200:
                break
            g = random_graph(rng, fmt, weights)
            blob = write_out(g)
            g2, header2 = parse_out(blob, tags=g.tags)
            g3, header3 = parse_out(write_out(g2, header2), tags=g.tags)
            ok = ok and g2 == g and g3 == g2 and header3 == header2
            count += 1
    elapsed = time.monotonic() - start
    report(1, "format fidelity (200 graphs, <10s)", ok and elapsed < 10)


def test_02_size_volume_reproduction():
    rng = np.random.default_rng(58)
    pairs = set()
    while len(pairs) < 58:
        a, b = sorted(rng.integers(1, 17, size=2).tolist())
        if a != b:
            pairs.add((a, b))
    g = graph_from_pairs(sorted(pairs), 16, weights=WeightType.SIGNED,
                         w=rng.choice([-1.0, 1.0], size=58))
    ok = compute(g, "size").value == 16 and compute(g, "volume").value == 58
    report(2, "16-node / 58-edge size and volume", ok)


def test_03_trace_identities():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        n = int(rng.integers(8, 201))
        g = random_simple_undirected(rng, n, rng.uniform(0.02, 0.2))
        vals = np.linalg.eigvalsh(g.adjacency.toarray())
        m = g.m
        t = compute(g, "triangles").value
        q = compute(g, "squares").value
        s = compute(g, "twostars").value
        ok = ok and abs(np.sum(vals**2) - 2 * m) < 1e-6
        ok = ok and abs(np.sum(vals**3) - 6 * t) < 1e-6
        ok = ok and abs(np.sum(vals**4) - (8 * q + 4 * s + 2 * m)) < 1e-6
    report(3, "trace identities Tr(A^2/3/4)", ok)


def _brute_force_counts(g):
    pairs = set()
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    nodes = sorted({x for p in pairs for x in p})
    adj = {u: set() for u in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    t = sum(1 for a, b, c in itertools.combinations(nodes, 3)
            if b in adj[a] and c in adj[b] and a in adj[c])
    q = 0
    for quad in itertools.combinations(nodes, 4):
        for perm in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            cyc = [quad[i] for i in perm]
            if all(cyc[i] in adj[cyc[(i + 1) % 4]] for i in range(4)):
                q += 1
    deg = {u: len(adj[u]) for u in nodes}
    s = sum(math.comb(d, 2) for d in deg.values())
    z = sum(math.comb(d, 3) for d in deg.values())
    x = sum(math.comb(d, 4) for d in deg.values())
    return t, q, s, z, x


def test_04_count_statistic_oracles():
    rng = np.random.default_rng(4)
    ok = True
    for n, p in ((20, 0.3), (35, 0.2), (50, 0.12), (60, 0.08)):
        g = random_simple_undirected(rng, n, p)
        t, q, s, z, x = _brute_force_counts(g)
        ok = ok and compute(g, "triangles").value == t
        ok = ok and compute(g, "squares").value == q
        ok = ok and compute(g, "twostars").value == s
        ok = ok and compute(g, "threestars").value == z
        ok = ok and compute(g, "fourstars").value == x
    report(4, "count statistics vs brute force", ok)


def test_05_distance_oracles():
    rng = np.random.default_rng(5)
    ok = True
    graphs = 0
    while graphs < 6:
        n = int(rng.integers(10, 201))
        g = random_simple_undirected(rng, n, rng.uniform(0.03, 0.2))
        lcc = largest_connected_component(g)
        if lcc.n < 4:
            continue
        graphs += 1
        d = np.full((lcc.n, lcc.n), np.inf)
        np.fill_diagonal(d, 0)
        for a, b in zip(lcc.src.tolist(), lcc.dst.tolist()):
            d[a - 1, b - 1] = d[b - 1, a - 1] = 1
        for k in range(lcc.n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        ok = ok and compute(g, "diam").value == int(d.max())
        ok = ok and compute(g, "radius").value == int(d.max(axis=1).min())
        ok = ok and abs(compute(g, "meandist").value - d.mean()) < 1e-9
        flat = np.sort(d.ravel())
        ok = ok and compute(g, "mediandist").value == int(flat[(len(flat) + 1) // 2 - 1])
        nonself = d[~np.eye(lcc.n, dtype=bool)].astype(int)
        hops = np.bincount(nonself)
        cum = np.cumsum(hops) / hops.sum()
        h = int(np.searchsorted(cum, 0.9))
        prev = cum[h - 1] if h else 0.0
        expected = h - 1 + (0.9 - prev) / (cum[h] - prev)
        ok = ok and abs(compute(g, "diam_eff").value - expected) < 1e-9
    report(5, "distance statistics vs Floyd-Warshall", ok)


def test_06_spectral_correctness(monkeypatch):
    def dense_and_iterative(solve):
        monkeypatch.setattr(spectral, "DENSE_LIMIT", math.inf)
        dense = solve()
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        return dense, solve()

    rng = np.random.default_rng(6)
    ok = True
    g = largest_connected_component(random_simple_undirected(rng, 300, 0.03))
    signed = graph_from_pairs(
        list(zip(g.src.tolist(), g.dst.tolist())), g.n,
        weights=WeightType.SIGNED, w=rng.choice([-1.0, 1.0], size=g.m))
    symmetric_cases = [
        (g, MatrixKind.ADJACENCY, "largest-absolute"),
        (g, MatrixKind.DEGREE, "largest-absolute"),
        (g, MatrixKind.NORMALIZED, "largest-absolute"),
        (g, MatrixKind.LAPLACIAN, "smallest"),
        (g, MatrixKind.NORM_LAPLACIAN, "smallest"),
        (g, MatrixKind.SIGNLESS_LAPLACIAN, "smallest"),
        (signed, MatrixKind.ADJACENCY, "largest-absolute"),
        (signed, MatrixKind.LAPLACIAN, "smallest"),
    ]
    for graph, kind, order in symmetric_cases:
        op = build_operator(graph, kind)
        dense, iterative = dense_and_iterative(lambda: eig_symmetric(op, 10, order))
        scale = max(1.0, float(np.abs(dense.values).max()))
        ok = ok and np.all(
            np.abs(dense.values - iterative.values) <= 1e-8 * scale
        )
        ok = ok and np.max(iterative.residuals) <= 1e-8

    # stochastic kinds are asymmetric: compare moduli via the general solver
    for kind in (MatrixKind.STOCHASTIC, MatrixKind.STOCHASTIC_COL,
                 MatrixKind.STOCHASTIC_LAPLACIAN):
        op = build_operator(g, kind)
        dense, iterative = dense_and_iterative(lambda: eig_general(op, 10))
        scale = max(1.0, float(np.abs(dense.values).max()))
        k = min(len(dense.values), len(iterative.values), 10)
        ok = ok and np.all(
            np.abs(np.abs(dense.values[:k]) - np.abs(iterative.values[:k]))
            <= 1e-7 * scale
        )
        ok = ok and np.max(iterative.residuals) <= 1e-8

    bip = random_graph(np.random.default_rng(66), Format.BIPARTITE,
                       WeightType.UNWEIGHTED, n_max=120, m_max=700)
    dense, iterative = dense_and_iterative(lambda: svd_biadjacency(bip, 10))
    scale = max(1.0, float(dense.values.max()))
    ok = ok and np.all(np.abs(dense.values - iterative.values) <= 1e-8 * scale)
    ok = ok and np.max(iterative.residuals) <= 1e-8
    report(6, "iterative vs dense eigensolver agreement", ok)


def test_07_bipartivity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        bip = random_graph(rng, Format.BIPARTITE, WeightType.UNWEIGHTED,
                           n_max=15, m_max=50)
        if bip.m == 0:
            continue
        ok = ok and compute(bip, "nonbip").value <= 1e-8
        ok = ok and compute(bip, "nonbipn").value <= 1e-8
        ok = ok and compute(bip, "frustration").value == 0.0
        ok = ok and compute(bip, "anticonflict").value <= 1e-8
    k3 = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3)
    ok = ok and compute(k3, "nonbip").value == pytest.approx(0.5, abs=1e-12)
    f = compute(k3, "frustration")
    ok = ok and f.value == pytest.approx(1 / 3) and f.method == "exact"
    report(7, "bipartivity measures vanish on bipartite graphs", ok)


def test_08_inequality_measures():
    rng = np.random.default_rng(8)
    cycle = graph_from_pairs([(i, i % 6 + 1) for i in range(1, 7)], 6)
    ok = abs(compute(cycle, "gini").value) <= 1e-12
    ok = ok and abs(compute(cycle, "dentropyn").value - 1) <= 1e-12
    g = random_simple_undirected(rng, 10_000, 0.0008)
    from netstats.plots import plot_lorenz

    series = plot_lorenz(Workspace(g))
    x, y = series.columns["node_fraction"], series.columns["edge_fraction"]
    area = float(np.trapezoid(x - y, x))
    gini = compute(g, "gini").value
    ok = ok and abs(2 * area - gini) <= 1e-9
    report(8, "Gini / entropy / Lorenz-area identities", ok)


def test_09_signed_invariants():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        base = random_simple_undirected(rng, int(rng.integers(6, 25)),
                                        rng.uniform(0.15, 0.5))
        if base.m == 0:
            continue
        signed = graph_from_pairs(
            list(zip(base.src.tolist(), base.dst.tolist())), base.n,
            weights=WeightType.SIGNED,
            w=rng.choice([-1.0, 1.0], size=base.m))
        cs = compute(signed, "clusco_signed").value
        c = compute(signed, "clusco").value
        if not (math.isnan(cs) or math.isnan(c)):
            ok = ok and abs(cs) <= c + 1e-12
    for _ in range(5):
        base = largest_connected_component(
            random_simple_undirected(rng, 30, 0.15))
        if base.m == 0:
            continue
        sides = rng.choice([-1.0, 1.0], size=base.n)
        w = np.array([sides[a - 1] * sides[b - 1]
                      for a, b in zip(base.src.tolist(), base.dst.tolist())])
        balanced = graph_from_pairs(
            list(zip(base.src.tolist(), base.dst.tolist())), base.n,
            weights=WeightType.SIGNED, w=w)
        ok = ok and compute(balanced, "conflict").value <= 1e-8
    odd = graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3,
                           weights=WeightType.SIGNED, w=[-1, 1, 1])
    ok = ok and compute(odd, "conflict").value > 1e-8
    report(9, "signed clustering bound and algebraic conflict", ok)


def test_10_determinism(tmp_path):
    rng = np.random.default_rng(10)
    g = random_simple_undirected(rng, 80, 0.08)
    data = write_out(g)
    src = tmp_path / "out.det"
    src.write_bytes(data)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["stats", str(src), "--all", "--out", str(out),
                     "--exact-threshold", "10", "--sample-sources", "30",
                     "--seed", "42"])
        assert code == 0
        code = main(["plot", str(src), "--all", "--out", str(out), "--seed", "42"])
        assert code == 0
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    ok = files_a == files_b and len(files_a) > 10
    for rel in files_a:
        ok = ok and (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    report(10, "byte-identical repeated runs", ok)


def test_11_throughput(tmp_path):
    rng = np.random.default_rng(11)
    n, m = 120_000, 1_000_000
    src = rng.integers(1, n + 1, size=int(m * 1.05))
    dst = rng.integers(1, n + 1, size=int(m * 1.05))
    keep = src != dst
    src, dst = src[keep][:m], dst[keep][:m]
    assert len(src) == m
    from netstats.graph import Graph

    g = Graph(fmt=Format.DIRECTED, weights=WeightType.POSITIVE, n1=n, n2=None,
              src=src, dst=dst)
    path = tmp_path / "out.big"
    path.write_bytes(write_out(g))
    start = time.monotonic()
    code = main(["stats", str(path), "--all", "--out", str(tmp_path / "res"),
                 "--exact-threshold", "20000", "--sample-sources", "1000"])
    elapsed = time.monotonic() - start
    ok = code == 0 and elapsed < 60
    text = (tmp_path / "res" / "big" / "statistics.tsv").read_text()
    ok = ok and "meandist" in text and "estimated" in text
    report(11, f"million-edge stats --all in {elapsed:.1f}s (<60s)", ok)
