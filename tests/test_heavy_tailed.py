"""The smallest end of heavy-tailed Laplacians: LOBPCG against dense oracles.

Above DENSE_LIMIT, the few smallest pairs (k <= LOBPCG_MAX_K) of the
Laplacian and the signless Laplacian of a graph whose largest degree is at
least HEAVY_TAIL_RATIO times the mean take Jacobi-preconditioned LOBPCG;
every other symmetric solve takes ARPACK.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netstats
from netstats import cli, spectral, stats
from netstats.cli import main
from netstats.graph import Format, Graph, WeightType
from netstats.io import parse_out, write_out
from netstats.spectral import MatrixKind, build_operator, eig_symmetric

from gen import random_simple_undirected

ROOT = Path(__file__).resolve().parents[1]


def chung_lu(seed, n, m, fmt=Format.UNDIRECTED, signed=False):
    """A simple Chung-Lu graph with weights (i + 3)^(-2/3), so that the
    degrees follow a power law of exponent 2.5 with a few large hubs."""
    rng = np.random.default_rng(seed)
    w = (np.arange(n) + 3.0) ** (-1 / 1.5)
    src = rng.choice(n, m, p=w / w.sum()) + 1
    dst = rng.choice(n, m, p=w / w.sum()) + 1
    if fmt is not Format.BIPARTITE:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    key = np.unique((src * (n + 1) + dst)[src != dst])
    weights, weight = WeightType.UNWEIGHTED, None
    if signed:
        weights, weight = WeightType.SIGNED, rng.choice([-1.0, 1.0], size=len(key))
    return Graph(fmt=fmt, weights=weights, n1=n, n2=n if fmt is Format.BIPARTITE else None,
                 src=key // (n + 1), dst=key % (n + 1), weight=weight)


@pytest.fixture(scope="module")
def heavy():
    return stats.Workspace(chung_lu(1, 1500, 4500))


def _dense_smallest(op, k):
    return np.linalg.eigvalsh(op.matrix.toarray())[:k]


def test_the_rule_takes_heavy_tailed_laplacians_only(heavy):
    op = build_operator(heavy.sym_lcc, MatrixKind.LAPLACIAN)
    assert op.dim > spectral.DENSE_LIMIT
    d = op.matrix.diagonal()
    assert d.max() >= spectral.HEAVY_TAIL_RATIO * d.mean()
    assert spectral._heavy_tailed(op)
    assert spectral._heavy_tailed(build_operator(heavy.bip_base, MatrixKind.SIGNLESS_LAPLACIAN))
    assert not spectral._heavy_tailed(build_operator(heavy.sym_lcc, MatrixKind.ADJACENCY))
    assert not spectral._heavy_tailed(build_operator(heavy.sym_lcc, MatrixKind.NORM_LAPLACIAN))
    uniform = stats.Workspace(random_simple_undirected(np.random.default_rng(2), 800, 0.01))
    assert not spectral._heavy_tailed(build_operator(uniform.sym_lcc, MatrixKind.LAPLACIAN))
    # an isolated node leaves a zero on the diagonal, which Jacobi cannot invert
    assert not spectral._heavy_tailed(build_operator(heavy.g, MatrixKind.LAPLACIAN))


def test_anticonflict_matches_dense(heavy):
    op = build_operator(heavy.bip_base, MatrixKind.SIGNLESS_LAPLACIAN)
    base = heavy.bip_base
    expected = base.n / (8 * base.m) * _dense_smallest(op, 1)[0]
    value = stats.compute_row(heavy, "anticonflict").value
    assert value == pytest.approx(expected, rel=1e-8)


def test_alcon_matches_dense(heavy):
    op = build_operator(heavy.sym_lcc, MatrixKind.LAPLACIAN)
    expected = _dense_smallest(op, 2)[1]
    assert stats.compute_row(heavy, "alcon").value == pytest.approx(expected, rel=1e-8)


def test_conflict_of_a_signed_copy_matches_dense():
    ws = stats.Workspace(chung_lu(1, 1500, 4500, signed=True))
    op = build_operator(ws.sym_lcc, MatrixKind.LAPLACIAN)
    assert spectral._heavy_tailed(op)
    expected = _dense_smallest(op, 1)[0]
    assert stats.compute_row(ws, "conflict").value == pytest.approx(expected, rel=1e-8)


def test_anticonflict_of_a_bipartite_graph_is_zero():
    ws = stats.Workspace(chung_lu(3, 900, 3000, fmt=Format.BIPARTITE))
    op = build_operator(ws.bip_base, MatrixKind.SIGNLESS_LAPLACIAN)
    assert op.dim > spectral.DENSE_LIMIT and spectral._heavy_tailed(op)
    res = eig_symmetric(op, 1, "smallest")
    assert abs(res.values[0]) <= 1e-8 * op.norm_bound()
    assert abs(stats.compute_row(ws, "anticonflict").value) <= 1e-8


@pytest.mark.parametrize("k", [3, spectral.SPECTRUM_K])
def test_laplacian_smallest_k_match_dense(heavy, k):
    op = build_operator(heavy.sym_lcc, MatrixKind.LAPLACIAN)
    res = eig_symmetric(op, k, "smallest")
    assert res.method == "iterative"
    # relative to the operator's norm, so that the eigenvalue 0 compares too
    assert np.max(np.abs(res.values - _dense_smallest(op, k))) <= 1e-8 * op.norm_bound()
    assert np.max(res.residuals) <= 1e-8


def _counting(monkeypatch):
    calls = {"lobpcg": 0, "eigsh": 0}
    for name in calls:
        solver = getattr(spectral, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    return calls


def test_homogeneous_graph_calls_arpack(monkeypatch):
    calls = _counting(monkeypatch)
    ws = stats.Workspace(random_simple_undirected(np.random.default_rng(2), 800, 0.01))
    assert ws.sym_lcc.n > spectral.DENSE_LIMIT
    for name in ("alcon", "anticonflict"):
        assert isinstance(stats.compute_row(ws, name), stats.StatisticValue)
    assert calls == {"lobpcg": 0, "eigsh": 2}


def test_heavy_tailed_graph_calls_lobpcg(monkeypatch, heavy):
    calls = _counting(monkeypatch)
    for name in ("alcon", "anticonflict"):
        assert isinstance(stats.compute_row(heavy, name), stats.StatisticValue)
    assert calls == {"lobpcg": 2, "eigsh": 0}
    op = build_operator(heavy.sym_lcc, MatrixKind.LAPLACIAN)
    eig_symmetric(op, spectral.LOBPCG_MAX_K, "smallest")  # the drawing's k
    assert calls == {"lobpcg": 3, "eigsh": 0}
    # the largest end of L, and a block past LOBPCG_MAX_K, stay with ARPACK
    eig_symmetric(op, 1)
    eig_symmetric(op, spectral.LOBPCG_MAX_K + 1, "smallest")
    assert calls == {"lobpcg": 3, "eigsh": 2}


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_outputs_are_byte_identical_over_runs_and_jobs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)  # fork even on one core
    calls = _counting(monkeypatch)
    path = tmp_path / "out.heavy"
    path.write_bytes(write_out(chung_lu(1, 1500, 4500)))
    runs = []
    for jobs in ("1", "1", "2", "2"):
        out = tmp_path / f"run{len(runs)}"
        assert main(["stats", str(path), "--all", "--out", str(out), "--jobs", jobs]) == 0
        assert main(["plot", str(path), "spectrum", "drawing", "--out", str(out),
                     "--jobs", jobs]) == 0
        runs.append(_files(out))
    capsys.readouterr()
    # four per serial run (alcon, anticonflict, the frustration seed and
    # drawing-L); forked workers count in their own copy
    assert calls["lobpcg"] >= 8
    first = runs[0]
    assert Path("heavy/spectra.laplacian.heavy.tsv") in first
    assert Path("heavy/plot.drawing-L.heavy.tsv") in first
    for other in runs[1:]:
        assert other == first


def test_one_iteration_is_an_na_row_and_no_warning(tmp_path):
    path = tmp_path / "out.heavy"
    path.write_bytes(write_out(chung_lu(1, 1500, 4500)))
    script = ("import sys; from netstats import spectral; from netstats.cli import main; "
              "spectral._maxiter = lambda k: 1; "
              "sys.exit(main(['stats', sys.argv[1], 'alcon', 'anticonflict']))")
    src = str(Path(netstats.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    rows = dict(line.split("\t", 1) for line in proc.stdout.splitlines()
                if not line.startswith("#"))
    for name in ("alcon", "anticonflict"):
        assert rows[name].startswith("NA\t-\t-\treason=residuals up to "), rows[name]


def test_alcon_of_the_powerlaw_graph_arpack_failed_on(tmp_path):
    # graph 0 of the benchmark's powerlaw(209): ARPACK stopped after 1001
    # iterations with 1 of 2 eigenvectors converged; dense eigh gives 0.371928137
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    g, _ = parse_out(workloads.powerlaw(209, graphs=1)[0].write(tmp_path).read_bytes())
    assert stats.compute(g, "alcon").value == pytest.approx(0.371928137, rel=1e-8)
