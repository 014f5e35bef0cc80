import re
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from netstats import spectral
from netstats.graph import Format, IncompatibleGraphError, WeightType
from netstats.spectral import (
    MatrixKind,
    SpectralError,
    build_operator,
    eig_general,
    eig_symmetric,
    spectrum,
    svd,
    svd_biadjacency,
)
from netstats.stats import StatisticValue, compute_all

from gen import graph_from_pairs, random_simple_undirected


def triangle():
    return graph_from_pairs([(1, 2), (2, 3), (1, 3)], 3)


def test_adjacency_row_sums_are_degrees():
    op = build_operator(triangle(), MatrixKind.ADJACENCY)
    ones = np.ones(3)
    assert np.allclose(op.matrix @ ones, [2, 2, 2])


def test_stochastic_is_row_stochastic():
    g = graph_from_pairs([(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    op = build_operator(g, MatrixKind.STOCHASTIC)
    assert np.allclose(op.matrix @ np.ones(op.dim), 1.0)


def test_laplacian_kills_constant_vector():
    g = graph_from_pairs([(1, 2), (2, 3)], 3)
    op = build_operator(g, MatrixKind.LAPLACIAN)
    assert np.allclose(op.matrix @ np.ones(3), 0.0)


def test_isolated_nodes_dropped_for_normalized():
    g = graph_from_pairs([(1, 2)], 4)
    op = build_operator(g, MatrixKind.NORMALIZED)
    assert op.dim == 2
    assert list(op.nodes) == [1, 2]


def test_eig_triangle_spectrum():
    # oracle: dense solve of [[0,1,1],[1,0,1],[1,1,0]]
    expected = np.sort(np.linalg.eigvalsh(np.ones((3, 3)) - np.eye(3)))
    op = build_operator(triangle(), MatrixKind.ADJACENCY)
    res = eig_symmetric(op, k=3)
    assert np.allclose(np.sort(res.values), expected)
    assert np.allclose(np.sort(res.values), [-1, -1, 2])


def test_eig_path_laplacian_smallest():
    g = graph_from_pairs([(1, 2)], 2)
    op = build_operator(g, MatrixKind.LAPLACIAN)
    res = eig_symmetric(op, k=2, order="smallest")
    assert np.allclose(res.values, [0, 2], atol=1e-12)


def test_bipartite_adjacency_spectrum_symmetric():
    g = graph_from_pairs([(1, 1), (1, 2), (2, 1)], 2, fmt=Format.BIPARTITE, n2=2)
    op = build_operator(g, MatrixKind.ADJACENCY)
    res = eig_symmetric(op, k=op.dim)
    vals = np.sort(res.values)
    assert np.allclose(vals, -vals[::-1], atol=1e-9)


def test_eig_iterative_matches_dense(monkeypatch):
    rng = np.random.default_rng(2)
    g = random_simple_undirected(rng, 80, 0.1)
    op = build_operator(g, MatrixKind.ADJACENCY)
    dense = eig_symmetric(op, k=5)  # 80 rows: below DENSE_LIMIT
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
    iterative = eig_symmetric(op, k=5)
    assert np.allclose(dense.values, iterative.values, rtol=1e-8)
    assert np.max(iterative.residuals) <= 1e-8


def test_eig_symmetric_vectors_orthogonal():
    rng = np.random.default_rng(4)
    g = random_simple_undirected(rng, 40, 0.2)
    op = build_operator(g, MatrixKind.NORMALIZED)
    res = eig_symmetric(op, k=4)
    gram = res.vectors.T @ res.vectors
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_norm_laplacian_mirrors_normalized():
    rng = np.random.default_rng(6)
    g = random_simple_undirected(rng, 30, 0.25)
    n_op = build_operator(g, MatrixKind.NORMALIZED)
    z_op = build_operator(g, MatrixKind.NORM_LAPLACIAN)
    n_vals = np.sort(eig_symmetric(n_op, k=n_op.dim).values)
    z_vals = np.sort(eig_symmetric(z_op, k=z_op.dim).values)
    assert np.allclose(np.sort(1 - n_vals), z_vals, atol=1e-9)


def test_normalized_range_and_top_eigvector():
    rng = np.random.default_rng(8)
    g = random_simple_undirected(rng, 25, 0.3)
    from netstats.graph import largest_connected_component

    lcc = largest_connected_component(g)
    op = build_operator(lcc, MatrixKind.NORMALIZED)
    res = eig_symmetric(op, k=op.dim)
    assert np.all(res.values <= 1 + 1e-9) and np.all(res.values >= -1 - 1e-9)
    top = np.argmax(res.values)
    vec = res.vectors[:, top]
    expected = np.sqrt(lcc.degrees[op.nodes - 1].astype(float))
    expected /= np.linalg.norm(expected)
    assert np.allclose(np.abs(vec), expected, atol=1e-8)


def test_laplacian_zero_multiplicity_counts_components():
    g = graph_from_pairs([(1, 2), (2, 3), (4, 5), (6, 7), (6, 8)], 8)
    op = build_operator(g, MatrixKind.LAPLACIAN)
    res = eig_symmetric(op, k=op.dim, order="smallest")
    zeros = np.sum(np.abs(res.values) < 1e-9)
    assert zeros == 3


def test_stochastic_similar_to_normalized():
    rng = np.random.default_rng(10)
    g = random_simple_undirected(rng, 30, 0.25)
    n_op = build_operator(g, MatrixKind.NORMALIZED)
    p_op = build_operator(g, MatrixKind.STOCHASTIC)
    n_vals = np.sort(eig_symmetric(n_op, k=n_op.dim).values)
    p_vals = np.sort(np.linalg.eigvals(p_op.matrix.toarray()).real)
    assert np.allclose(n_vals, p_vals, atol=1e-8)


def test_signless_laplacian_nonnegative():
    rng = np.random.default_rng(12)
    g = random_simple_undirected(rng, 30, 0.2)
    op = build_operator(g, MatrixKind.SIGNLESS_LAPLACIAN)
    vals = eig_symmetric(op, k=op.dim, order="smallest").values
    assert np.all(vals >= -1e-9)


def test_signless_laplacian_keeps_isolated_nodes():
    # K = D + A needs no inverse, so an isolated node is a zero row, not dropped
    g = graph_from_pairs([(1, 2), (2, 3)], 4)
    op = build_operator(g, MatrixKind.SIGNLESS_LAPLACIAN)
    assert op.dim == 4 and list(op.nodes) == [1, 2, 3, 4]
    vals = np.sort(eig_symmetric(op, k=op.dim, order="smallest").values)
    assert np.allclose(vals, [0, 0, 1, 3], atol=1e-9)


def test_directed_cycle_complex_eigenvalues():
    g = graph_from_pairs([(1, 2), (2, 3), (3, 1)], 3, fmt=Format.DIRECTED)
    op = build_operator(g, MatrixKind.ADJACENCY)
    res = eig_general(op, k=3)
    # oracle: circulant spectrum = cube roots of unity
    expected = np.sort_complex(np.roots([1, 0, 0, -1]))
    assert np.allclose(np.sort_complex(res.values), expected, atol=1e-9)


def test_dag_adjacency_nilpotent():
    g = graph_from_pairs([(1, 2), (2, 3)], 3, fmt=Format.DIRECTED)
    op = build_operator(g, MatrixKind.ADJACENCY)
    res = eig_general(op, k=3)
    assert np.allclose(res.values, 0, atol=1e-12)


def test_directed_matrices_are_not_symmetric():
    chorded = graph_from_pairs([(1, 2), (2, 3), (3, 1), (1, 3)], 3, fmt=Format.DIRECTED)
    for kind in (MatrixKind.ADJACENCY, MatrixKind.NORMALIZED, MatrixKind.LAPLACIAN,
                 MatrixKind.SIGNLESS_LAPLACIAN, MatrixKind.NORM_LAPLACIAN):
        op = build_operator(chorded, kind)
        assert not op.is_symmetric
        with pytest.raises(IncompatibleGraphError, match="directed graph"):
            eig_symmetric(op, 1)
    assert build_operator(chorded, MatrixKind.DEGREE).is_symmetric
    undirected = graph_from_pairs([(1, 2), (2, 3), (3, 1), (1, 3)], 3)
    for kind in (MatrixKind.ADJACENCY, MatrixKind.NORMALIZED, MatrixKind.LAPLACIAN):
        assert build_operator(undirected, kind).is_symmetric


def test_reciprocal_directed_graph_real_spectrum():
    pairs = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
    g = graph_from_pairs(pairs, 3, fmt=Format.DIRECTED)
    res = eig_general(build_operator(g, MatrixKind.ADJACENCY), k=3)
    assert np.allclose(res.values.imag, 0, atol=1e-9)


def test_complex_values_conjugate_closed():
    rng = np.random.default_rng(14)
    pairs = {(int(a) + 1, int(b) + 1) for a, b in rng.integers(0, 20, size=(60, 2)) if a != b}
    g = graph_from_pairs(sorted(pairs), 20, fmt=Format.DIRECTED)
    res = eig_general(build_operator(g, MatrixKind.ADJACENCY), k=6)
    for v in res.values:
        if abs(v.imag) > 1e-9:
            assert np.min(np.abs(res.values - v.conjugate())) < 1e-8


def test_svd_single_edge():
    g = graph_from_pairs([(1, 1)], 1, fmt=Format.BIPARTITE, n2=1)
    res = svd_biadjacency(g, k=1)
    assert np.allclose(res.values, [1.0])


def test_svd_complete_bipartite():
    g = graph_from_pairs([(1, 1), (1, 2), (2, 1), (2, 2)], 2,
                         fmt=Format.BIPARTITE, n2=2)
    res = svd_biadjacency(g, k=2)
    # oracle: dense SVD of the 2x2 all-ones matrix
    expected = np.linalg.svd(np.ones((2, 2)), compute_uv=False)
    assert np.allclose(np.sort(res.values), np.sort(expected))
    assert np.allclose(np.sort(res.values), [0, 2])


def test_svd_matches_bipartite_adjacency_norm():
    rng = np.random.default_rng(16)
    pairs = {(int(a) + 1, int(b) + 1) for a, b in rng.integers(0, 12, size=(40, 2))}
    g = graph_from_pairs(sorted(pairs), 12, fmt=Format.BIPARTITE, n2=12)
    sigma = svd_biadjacency(g, k=1).values[0]
    lam = eig_symmetric(build_operator(g, MatrixKind.ADJACENCY), k=1).values[0]
    assert sigma == pytest.approx(abs(lam), rel=1e-9)


def test_svd_requires_bipartite():
    from netstats.graph import IncompatibleGraphError

    with pytest.raises(IncompatibleGraphError):
        svd_biadjacency(triangle(), k=1)


def test_trace_identities_small():
    rng = np.random.default_rng(18)
    g = random_simple_undirected(rng, 40, 0.2)
    a = build_operator(g, MatrixKind.ADJACENCY).matrix.toarray()
    vals = np.linalg.eigvalsh(a)
    m = g.m
    assert abs(vals.sum()) < 1e-8
    assert np.sum(vals**2) == pytest.approx(2 * m, abs=1e-6)


def test_values_tsv_roundtrip_shape():
    res = eig_symmetric(build_operator(triangle(), MatrixKind.ADJACENCY), k=2)
    text = res.values_tsv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 3
    vec_lines = res.vectors_tsv().strip().split("\n")
    assert len(vec_lines) == 4


def _bend_vectors(solver, slot, columns=slice(0, 1)):
    """``solver`` with the first entry of the ``columns`` of its output
    ``slot`` moved, pushing those eigen- or singular pairs off."""

    def bent(*args, **kwargs):
        out = list(solver(*args, **kwargs))
        out[slot] = out[slot].copy()
        out[slot][0, columns] += 1e-4
        return tuple(out)

    return bent


def _dense_cases():
    rng = np.random.default_rng(19)
    undirected = random_simple_undirected(rng, 12, 0.4)
    pairs = {(int(a) + 1, int(b) + 1) for a, b in rng.integers(0, 12, size=(40, 2)) if a != b}
    directed = graph_from_pairs(sorted(pairs), 12, fmt=Format.DIRECTED)
    bipartite = graph_from_pairs(sorted(pairs), 12, fmt=Format.BIPARTITE, n2=12)
    return {
        "eigh": lambda: eig_symmetric(build_operator(undirected, MatrixKind.ADJACENCY), k=12),
        "eig": lambda: eig_general(build_operator(directed, MatrixKind.ADJACENCY), k=12),
        "svd": lambda: svd_biadjacency(bipartite, k=5),
    }


@pytest.mark.parametrize("lapack, slot", [("eigh", 1), ("eig", 1), ("svd", 0)])
def test_dense_path_gates_residuals(monkeypatch, lapack, slot):
    solve = _dense_cases()[lapack]
    assert solve().method == "dense"
    monkeypatch.setattr(np.linalg, lapack, _bend_vectors(getattr(np.linalg, lapack), slot))
    with pytest.raises(SpectralError, match="exceed tolerance") as info:
        solve()
    assert np.max(info.value.residuals) > 1e-8


def test_nan_residual_fails_the_gate(monkeypatch):
    eigh = np.linalg.eigh

    def nan_vector(a):
        vals, vecs = eigh(a)
        vecs[:, 0] = np.nan
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", nan_vector)
    with pytest.raises(SpectralError):
        eig_symmetric(build_operator(triangle(), MatrixKind.ADJACENCY), k=3)


def test_svd_of_a_directed_adjacency_is_its_operator_norm(monkeypatch):
    rng = np.random.default_rng(23)
    pairs = {(int(a) + 1, int(b) + 1) for a, b in rng.integers(0, 30, size=(90, 2)) if a != b}
    op = build_operator(graph_from_pairs(sorted(pairs), 30, fmt=Format.DIRECTED),
                        MatrixKind.ADJACENCY)
    dense = svd(op, 3)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
    iterative = svd(op, 3)
    assert (dense.method, iterative.method) == ("dense", "iterative")
    assert dense.values[0] == pytest.approx(np.linalg.norm(op.matrix.toarray(), 2))
    assert np.allclose(dense.values, iterative.values, rtol=1e-8)


def test_spectrum_is_whole_on_the_dense_path_and_top_k_above(monkeypatch):
    op = build_operator(random_simple_undirected(np.random.default_rng(29), 40, 0.2),
                        MatrixKind.ADJACENCY)
    whole = spectrum(op, 5)
    assert len(whole.values) == op.dim and whole.method == "dense"
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    top = spectrum(op, 5)
    assert len(top.values) == 5 and top.method == "iterative"
    assert np.allclose(top.values, whole.values[:5], rtol=1e-8)


def test_arpack_failure_carries_no_residuals(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("No convergence (11 iterations, 1/2 eigenvectors converged)",
                                  np.array([3.0]), np.zeros((12, 1)))

    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
    op = build_operator(random_simple_undirected(np.random.default_rng(19), 12, 0.4),
                        MatrixKind.ADJACENCY)
    with pytest.raises(SpectralError, match="eigensolver did not converge for adjacency") as info:
        eig_symmetric(op, 2)
    assert info.value.residuals is None


@pytest.mark.parametrize("case", ["undirected", "directed", "signed"])
def test_every_spectral_statistic_passes_the_gate(monkeypatch, case):
    rng = np.random.default_rng(31)
    undirected = random_simple_undirected(rng, 12, 0.4)
    pairs = list(zip(undirected.src.tolist(), undirected.dst.tolist()))
    g = {
        "undirected": undirected,
        "directed": graph_from_pairs(pairs, 12, fmt=Format.DIRECTED),
        "signed": graph_from_pairs(pairs, 12, weights=WeightType.SIGNED,
                                   w=rng.choice([-1.0, 1.0], size=len(pairs))),
    }[case]
    names = ["snorm", "conflict" if case == "signed" else "alcon",
             "anticonflict", "nonbip", "nonbipn"]
    assert all(isinstance(row, StatisticValue) for _, row in compute_all(g, names=names))
    # every column: a statistic may select any of the pairs
    monkeypatch.setattr(np.linalg, "eigh", _bend_vectors(np.linalg.eigh, 1, slice(None)))
    monkeypatch.setattr(np.linalg, "svd", _bend_vectors(np.linalg.svd, 0, slice(None)))
    for name, row in compute_all(g, names=names):
        assert isinstance(row, SpectralError), name
        assert "exceed tolerance" in str(row), name


def test_only_spectral_decomposes_matrices():
    solver = re.compile(r"linalg\.(eig|svd)|\b(eigsh|eigs|svds)\b|DENSE_LIMIT"
                        r"|\bOperator\(|spectral\._")
    package = Path(spectral.__file__).parent
    offenders = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "spectral.py"
        for i, line in enumerate(path.read_text().splitlines(), 1) if solver.search(line)
    ]
    assert offenders == []
