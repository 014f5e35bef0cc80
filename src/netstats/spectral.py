"""Characteristic matrices as sparse operators and their eigen/singular solvers.

Matrices are built over the combined node space from the pair-weight
adjacency A and the diagonal node-weight matrix D:

    N = D^{-1/2} A D^{-1/2}      Z = I - N       L = D - A
    P = D^{-1}   A               S = I - P       K = D + A

Zero-weight nodes are dropped before building the kinds that need D
inverses; the surviving original node ids are carried on the operator.
Symmetric solvers take one of three paths, each seeded deterministically:

- a dense direct decomposition up to ``DENSE_LIMIT`` rows;
- above it, Jacobi-preconditioned LOBPCG (Knyazev 2001) for the smallest
  k <= ``LOBPCG_MAX_K`` of L and K when their diagonal is heavy-tailed:
  every entry positive and the largest at least ``HEAVY_TAIL_RATIO`` times
  the mean.  There the hubs widen the spectrum and Lanczos needs hundreds
  of iterations, while the preconditioner D^{-1} removes the degree spread;
- ARPACK's Lanczos iteration for everything else.

Every path raises :class:`SpectralError` when a relative residual exceeds
``tol``; no path falls back to another.  No other module of the package
decomposes a matrix.
"""

from __future__ import annotations

import enum
import io as _io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigs, eigsh, lobpcg, svds

from .graph import Graph, GraphError, IncompatibleGraphError
# unused here; perfbench/trace_run.py wraps this name in every module it times
from .graph import latest_state  # noqa: F401

DENSE_LIMIT = 500
# d_max / d_mean on the diagonal of L or K from which LOBPCG solves the
# smallest end; generated heavy-tailed graphs read 24-28, uniform ones below 4
HEAVY_TAIL_RATIO = 10
# LOBPCG holds about 15 n x k blocks against ARPACK's 20-vector basis and
# shifted matrix copy; up to the drawing's k = 3 its peak stays below ARPACK's
LOBPCG_MAX_K = 3
DEFAULT_TOL = 1e-8
DEFAULT_SEED = 42
SPECTRUM_K = 49  # matches the 49-bin spectral distribution plots


class SpectralError(GraphError):
    """Solver failure; carries the residuals achieved so far, when any."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class MatrixKind(enum.Enum):
    ADJACENCY = "adjacency"
    BIADJACENCY = "biadjacency"
    DEGREE = "degree"
    NORMALIZED = "normalized"
    LAPLACIAN = "laplacian"
    NORM_LAPLACIAN = "norm-laplacian"
    STOCHASTIC = "stochastic"  # row stochastic, D^-1 A
    STOCHASTIC_COL = "stochastic-col"  # column stochastic, A D^-1
    STOCHASTIC_LAPLACIAN = "stochastic-laplacian"
    SIGNLESS_LAPLACIAN = "signless-laplacian"

_NEEDS_INVERSE = {
    MatrixKind.NORMALIZED,
    MatrixKind.NORM_LAPLACIAN,
    MatrixKind.STOCHASTIC,
    MatrixKind.STOCHASTIC_COL,
    MatrixKind.STOCHASTIC_LAPLACIAN,
}

_SYMMETRIC_KINDS = {
    MatrixKind.ADJACENCY,
    MatrixKind.DEGREE,
    MatrixKind.NORMALIZED,
    MatrixKind.LAPLACIAN,
    MatrixKind.NORM_LAPLACIAN,
    MatrixKind.SIGNLESS_LAPLACIAN,
}


@dataclass(frozen=True)
class Operator:
    """A characteristic matrix restricted to its operable nodes.

    ``nodes`` maps matrix rows to original combined node ids; for the
    biadjacency matrix, rows are left nodes and ``col_nodes`` right ones.
    ``directed`` marks a matrix built from a directed graph, whose edges
    need not be reciprocated.
    """

    kind: MatrixKind
    matrix: sparse.csr_array
    nodes: np.ndarray
    col_nodes: np.ndarray | None = None
    directed: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        """Whether the matrix is symmetric: only the degree matrix of a
        directed graph is."""
        if self.col_nodes is not None or self.kind not in _SYMMETRIC_KINDS:
            return False
        return not self.directed or self.kind is MatrixKind.DEGREE

    def norm_bound(self) -> float:
        """Inf-norm upper bound on the spectral norm, used to scale residuals."""
        m = self.matrix
        if m.nnz == 0:
            return 1.0
        rowsum = np.abs(m).sum(axis=1)
        return float(max(np.max(rowsum), 1e-30))


@dataclass(frozen=True)
class SpectralResult:
    kind: MatrixKind
    order: str  # largest-absolute | smallest | largest-modulus | singular
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    nodes: np.ndarray
    method: str  # dense | iterative
    right_vectors: np.ndarray | None = None
    col_nodes: np.ndarray | None = None

    def values_tsv(self) -> str:
        out = _io.StringIO()
        out.write("# index\treal\timag\tresidual\n")
        for i, v in enumerate(self.values):
            c = complex(v)
            out.write(f"{i}\t{c.real!r}\t{c.imag!r}\t{float(self.residuals[i])!r}\n")
        return out.getvalue()

    def vectors_tsv(self) -> str:
        out = _io.StringIO()
        cols = "\t".join(f"v{i}" for i in range(self.vectors.shape[1]))
        out.write(f"# node\t{cols}\n")
        for r, node in enumerate(self.nodes):
            row = "\t".join(repr(float(np.real(x))) for x in self.vectors[r])
            out.write(f"{int(node)}\t{row}\n")
        return out.getvalue()


def build_operator(g: Graph, kind: MatrixKind) -> Operator:
    """Assemble the requested characteristic matrix as a sparse CSR operator."""
    g = g.static
    if kind is MatrixKind.BIADJACENCY:
        if not g.is_bipartite:
            raise IncompatibleGraphError("biadjacency requires a bipartite graph")
        a = g.adjacency
        b = a[: g.n1, g.n1 :]
        return Operator(kind, sparse.csr_array(b),
                        nodes=np.arange(1, g.n1 + 1),
                        col_nodes=np.arange(g.n1 + 1, g.n + 1))

    a = g.adjacency
    w = g.node_weights.copy()
    nodes = np.arange(1, g.n + 1)
    if kind in _NEEDS_INVERSE:
        if kind is MatrixKind.STOCHASTIC and g.is_directed:
            w = _directed_weight(g, out_side=True)
        elif kind is MatrixKind.STOCHASTIC_COL and g.is_directed:
            w = _directed_weight(g, out_side=False)
        keep = w > 0
        if not np.all(keep):
            idx = np.flatnonzero(keep)
            if len(idx) == 0:
                raise SpectralError(f"no nonzero-weight nodes left for {kind.value}")
            a = a[idx][:, idx]
            w = w[idx]
            nodes = nodes[idx]
    n = len(nodes)

    if kind is MatrixKind.ADJACENCY:
        mat = a
    elif kind is MatrixKind.DEGREE:
        mat = _diag(w)
    elif kind is MatrixKind.LAPLACIAN:
        mat = _diag(w) - a
    elif kind is MatrixKind.SIGNLESS_LAPLACIAN:
        mat = _diag(w) + a
    elif kind is MatrixKind.NORMALIZED:
        mat = _scale(a, w, -0.5, -0.5)
    elif kind is MatrixKind.NORM_LAPLACIAN:
        mat = sparse.eye_array(n, format="csr") - _scale(a, w, -0.5, -0.5)
    elif kind is MatrixKind.STOCHASTIC:
        mat = _scale(a, w, -1.0, 0.0)
    elif kind is MatrixKind.STOCHASTIC_COL:
        mat = _scale(a, w, 0.0, -1.0)
    elif kind is MatrixKind.STOCHASTIC_LAPLACIAN:
        mat = sparse.eye_array(n, format="csr") - _scale(a, w, -1.0, 0.0)
    else:  # pragma: no cover
        raise ValueError(kind)
    return Operator(kind, sparse.csr_array(mat), nodes=nodes, directed=g.is_directed)


def _directed_weight(g: Graph, out_side: bool) -> np.ndarray:
    aw = np.abs(g.effective_weights)
    side = g.src if out_side else g.dst
    return np.bincount(side - 1, weights=aw, minlength=g.n)


def _diag(w: np.ndarray) -> sparse.csr_array:
    n = len(w)
    return sparse.dia_array((w[np.newaxis, :], [0]), shape=(n, n)).tocsr()


def _scale(a, w, lexp, rexp):
    left = w**lexp if lexp else np.ones_like(w)
    right = w**rexp if rexp else np.ones_like(w)
    out = sparse.csr_array(a, copy=True).astype(np.float64)
    out.data = out.data * left[_row_of(out)] * right[out.indices]
    return out


def _row_of(csr) -> np.ndarray:
    return np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))


def _seed_vector(dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(dim)


def _diagonal_entries(matrix) -> np.ndarray | None:
    """The diagonal when the matrix has no off-diagonal entries, else None."""
    coo = matrix.tocoo()
    if np.any(coo.row != coo.col):
        return None
    diag = np.zeros(matrix.shape[0])
    diag[coo.row] = coo.data
    return diag


def _eig_diagonal(op: Operator, k: int, order: str, diag: np.ndarray) -> SpectralResult:
    # Krylov iteration cannot separate repeated eigenvalues of a diagonal
    # operator; selecting entries directly is exact
    if order == "smallest":
        idx = np.argsort(diag, kind="stable")[:k]
    else:
        idx = np.argsort(-np.abs(diag), kind="stable")[:k]
    vals = diag[idx]
    vecs = np.zeros((op.dim, k))
    vecs[idx, np.arange(k)] = 1.0
    return SpectralResult(
        kind=op.kind, order=order, values=vals, vectors=vecs,
        residuals=np.zeros(k), nodes=op.nodes, method="diagonal",
    )


def eig_symmetric(
    op: Operator,
    k: int,
    order: str = "largest-absolute",
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """Top-k eigenpairs of a symmetric operator.

    ``order`` selects by largest absolute value or smallest algebraic value.
    A dense decomposition is used up to DENSE_LIMIT rows; above it, LOBPCG
    for the few smallest pairs of a heavy-tailed L or K and ARPACK otherwise.
    Residuals are relative to the operator norm.
    """
    if order not in ("largest-absolute", "smallest"):
        raise ValueError(f"unknown order {order!r}")
    if not op.is_symmetric:
        of = "of a directed graph " if op.directed else ""
        raise IncompatibleGraphError(f"the {op.kind.value} matrix {of}is not symmetric")
    n = op.dim
    if k < 1 or k > n:
        raise GraphError(f"k={k} out of range for dimension {n}")
    diag = _diagonal_entries(op.matrix)
    if diag is not None:
        return _eig_diagonal(op, k, order, diag)
    if _dense(n, k, n):  # Lanczos cannot produce a full spectrum
        vals, vecs = np.linalg.eigh(op.matrix.toarray())
        method = "dense"
    elif order == "smallest" and k <= LOBPCG_MAX_K and _heavy_tailed(op):
        vals, vecs = _lobpcg(op, k, tol / 10, seed)
        method = "iterative"
    else:
        # Lanczos targets extreme magnitudes; for the smallest eigenvalues,
        # shifting by an upper bound on the largest one maps them onto the
        # extremes, which converges far faster than ARPACK's "SA" mode
        shift = op.norm_bound() if order == "smallest" else 0.0
        matrix = op.matrix
        if shift:
            matrix = (matrix - sparse.eye_array(n, format="csr") * shift).tocsr()
        vals, vecs = _arpack(eigsh, matrix, k, tol / 10, seed,
                             f"eigensolver did not converge for {op.kind.value}")
        vals = vals + shift
        method = "iterative"

    if order == "largest-absolute":
        idx = np.argsort(-np.abs(vals), kind="stable")
    else:
        idx = np.argsort(vals, kind="stable")
    idx = idx[:k]
    vals, vecs = vals[idx], vecs[:, idx]
    residuals = _residuals(op, vals, vecs)
    _check_residuals(op, residuals, tol)
    return SpectralResult(
        kind=op.kind, order=order, values=vals, vectors=vecs,
        residuals=residuals, nodes=op.nodes, method=method,
    )


def eig_general(
    op: Operator,
    k: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """Top-k eigenvalues by modulus of a square (possibly asymmetric) operator.

    The returned set is closed under complex conjugation.
    """
    n = op.dim
    if op.col_nodes is not None:
        raise IncompatibleGraphError("general eigenvalues need a square operator")
    if k < 1 or k > n:
        raise GraphError(f"k={k} out of range for dimension {n}")
    if _dense(n, k, n - 1):  # ARPACK needs k < n-1 for general problems
        vals, vecs = np.linalg.eig(op.matrix.toarray())
        method = "dense"
    else:
        vals, vecs = _arpack(eigs, op.matrix, k, tol / 100, seed,
                             f"eigensolver did not converge for {op.kind.value}")
        method = "iterative"
    idx = np.argsort(-np.abs(vals), kind="stable")[:k]
    vals, vecs = vals[idx], vecs[:, idx]
    vals, vecs = _conjugate_close(vals, vecs, op.norm_bound() * 1e-9)
    residuals = _residuals(op, vals, vecs)
    _check_residuals(op, residuals, tol)
    return SpectralResult(
        kind=op.kind, order="largest-modulus", values=vals, vectors=vecs,
        residuals=residuals, nodes=op.nodes, method=method,
    )


def spectrum(
    op: Operator,
    k: int,
    order: str = "largest-absolute",
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """The whole spectrum of a symmetric operator where the dense path runs,
    else its top k eigenpairs; ``len(values) == op.dim`` tells which."""
    full = _dense(op.dim, k, op.dim)
    return eig_symmetric(op, op.dim if full else k, order, tol=tol, seed=seed)


def svd(
    op: Operator,
    k: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """Top-k singular triplets of any operator, square or rectangular."""
    n1, n2 = op.matrix.shape
    if k < 1 or k > min(n1, n2):
        raise GraphError(f"k={k} out of range for shape {op.matrix.shape}")
    if _dense(max(n1, n2), k, min(n1, n2)):
        u, s, vt = np.linalg.svd(op.matrix.toarray(), full_matrices=False)
        method = "dense"
    else:
        u, s, vt = _arpack(svds, op.matrix.astype(np.float64), k, tol / 100, seed,
                           "SVD did not converge")
        method = "iterative"
    idx = np.argsort(-s, kind="stable")[:k]
    u, s, v = u[:, idx], s[idx], vt[idx].T
    b = op.matrix
    scale = max(op.norm_bound(), 1e-30)
    res = np.maximum(
        np.linalg.norm(b @ v - u * s, axis=0),
        np.linalg.norm(b.T @ u - v * s, axis=0),
    ) / scale
    _check_residuals(op, res, tol)
    return SpectralResult(
        kind=op.kind, order="singular", values=s, vectors=u,
        residuals=res, nodes=op.nodes, method=method,
        right_vectors=v, col_nodes=op.col_nodes,
    )


def svd_biadjacency(
    g: Graph,
    k: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SpectralResult:
    """Top-k singular triplets of the biadjacency matrix of a bipartite graph."""
    return svd(build_operator(g, MatrixKind.BIADJACENCY), k, tol, seed)


def _dense(size: int, k: int, k_max: int) -> bool:
    """Whether to decompose densely: small enough, or k beyond what ARPACK
    can deliver (``k_max`` and above)."""
    return size <= DENSE_LIMIT or k >= k_max


def _arpack(solver, matrix, k: int, tol: float, seed: int, failure: str):
    """``solver`` (eigsh, eigs or svds) for the k largest-magnitude pairs,
    from a seeded start vector and with a bounded iteration count."""
    try:
        return solver(matrix, k=k, which="LM", v0=_seed_vector(min(matrix.shape), seed),
                      maxiter=_maxiter(k), tol=tol)
    except ArpackNoConvergence as exc:
        raise SpectralError(f"{failure}: {exc}") from exc


def _maxiter(k: int) -> int:
    return max(1000, 50 * k)


def _heavy_tailed(op: Operator) -> bool:
    """Whether ``op`` is a Laplacian or signless Laplacian whose diagonal is
    positive and spread by at least HEAVY_TAIL_RATIO."""
    if op.kind not in (MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN):
        return False
    d = op.matrix.diagonal()
    return bool(np.all(d > 0) and d.max() >= HEAVY_TAIL_RATIO * d.mean())


def _lobpcg(op: Operator, k: int, tol: float, seed: int):
    """The k smallest pairs by LOBPCG with the Jacobi preconditioner, from a
    seeded block and with a bounded iteration count."""
    x0 = np.random.default_rng(seed).standard_normal((op.dim, k))
    with warnings.catch_warnings():
        # stopped short of tol, scipy warns and returns its best iterate,
        # which the caller's residual gate then judges
        warnings.simplefilter("ignore")
        return lobpcg(op.matrix, x0, M=_diag(1.0 / op.matrix.diagonal()), largest=False,
                      tol=tol * op.norm_bound(), maxiter=_maxiter(k))


def _residuals(op: Operator, vals, vecs) -> np.ndarray:
    mv = op.matrix @ vecs
    res = np.linalg.norm(mv - vecs * vals[np.newaxis, :], axis=0)
    return res / max(op.norm_bound(), 1e-30)


def _check_residuals(op, residuals, tol):
    if len(residuals) and not np.max(residuals) <= tol:  # NaN fails too
        raise SpectralError(
            f"residuals up to {np.max(residuals):.3g} exceed tolerance {tol:.3g} "
            f"for {op.kind.value}",
            residuals=residuals,
        )


def _conjugate_close(vals, vecs, tol):
    """Ensure complex values come in conjugate pairs (real input matrices)."""
    vals = np.asarray(vals, dtype=np.complex128)
    keep_vals = list(vals)
    keep_vecs = [vecs[:, i] for i in range(vecs.shape[1])]
    for i, v in enumerate(vals):
        if abs(v.imag) <= tol:
            keep_vals[i] = complex(v.real, 0.0)
            continue
        has_conj = any(abs(w - v.conjugate()) <= 10 * max(tol, 1e-12 * abs(v)) for w in vals)
        if not has_conj:
            keep_vals.append(v.conjugate())
            keep_vecs.append(np.conjugate(keep_vecs[i]))
    order = np.argsort(-np.abs(np.array(keep_vals)), kind="stable")
    vals = np.array([keep_vals[i] for i in order])
    vecs = np.stack([keep_vecs[i] for i in order], axis=1)
    return vals, vecs
