"""The benchmark's own model of a generated dataset, for computing expected outputs.

It follows the conventions in the program's README (latest state of event
logs, multiplicities, centred ratings, counts on the underlying simple
graph, distances on the largest component) but shares no code with it.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, shortest_path

from workloads import NEGATIVE, RATING, WEIGHT_COLUMN, Dataset

_BLOCK_WORK = 4_000_000  # bound on the entries of one block of a sparse product


class Model:
    """The static graph of a dataset (event logs replayed) and what derives from it."""

    def __init__(self, ds: Dataset):
        self.ds = ds
        self.fmt = ds.fmt
        self.bip = ds.fmt == "bip"
        self.directed = ds.fmt == "asym"
        self.n1, self.n = ds.n1, ds.n
        src, dst, weight, ts, wtype = ds.src, ds.dst, ds.weight, ds.ts, ds.weights
        if wtype == "dynamic":
            order = np.argsort(ts, kind="stable")
            s, d, w = src[order], dst[order], weight[order]
            key = _pair_key(s, d, self.fmt, self.n)
            _, first_rev = np.unique(key[::-1], return_index=True)
            last = len(key) - 1 - first_rev
            added = np.sort(last[w[last] > 0])
            src, dst, weight, ts, wtype = s[added], d[added], None, None, "unweighted"
        self.wtype = wtype
        self.u = src - 1
        self.v = dst - 1 + (self.n1 if self.bip else 0)
        self.mult = multiplicities(wtype, weight, ts, len(src))
        if wtype in RATING:
            self.eff = weight - weight.mean()
        elif wtype in WEIGHT_COLUMN:
            self.eff = weight.astype(np.float64)
        else:
            self.eff = self.mult.astype(np.float64)
        self.m = int(self.mult.sum())
        self.negative = wtype in NEGATIVE

    # -- degrees and pairs -------------------------------------------------

    @cached_property
    def degrees(self) -> np.ndarray:
        return (np.bincount(self.u, self.mult, self.n)
                + np.bincount(self.v, self.mult, self.n)).astype(np.int64)

    @cached_property
    def unique_pairs(self) -> int:
        return len(np.unique(_pair_key(self.u, self.v, self.fmt, self.n)))

    @cached_property
    def pattern(self) -> sparse.csr_array:
        """0/1 symmetric adjacency of the simple loopless graph."""
        keep = self.u != self.v
        a = np.minimum(self.u[keep], self.v[keep])
        b = np.maximum(self.u[keep], self.v[keep])
        key = np.unique(a * self.n + b)
        a, b = key // self.n, key % self.n
        ones = np.ones(2 * len(a), dtype=np.int64)
        return sparse.csr_array(
            (ones, (np.concatenate([a, b]), np.concatenate([b, a]))),
            shape=(self.n, self.n))

    @cached_property
    def sdeg(self) -> np.ndarray:
        return np.diff(self.pattern.indptr).astype(np.int64)

    def stars(self, k: int) -> int:
        hist = np.bincount(self.sdeg)
        return sum(int(c) * comb(d, k) for d, c in enumerate(hist.tolist()) if c)

    @cached_property
    def labels(self) -> np.ndarray:
        return connected_components(self.pattern, directed=False)[1]

    @cached_property
    def lcc_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels == np.bincount(self.labels).argmax())

    @cached_property
    def largest_scc(self) -> int:
        a = sparse.csr_array((np.ones(len(self.u)), (self.u, self.v)), shape=(self.n, self.n))
        labels = connected_components(a, directed=True, connection="strong")[1]
        return int(np.bincount(labels).max())

    @cached_property
    def reciprocity(self) -> float:
        keys = self.u * self.n + self.v
        back = np.isin(self.v * self.n + self.u, keys)
        return float(self.mult[back].sum()) / self.m

    # -- closed walks on the simple graph -------------------------------------

    @cached_property
    def walks(self) -> tuple[np.ndarray, int]:
        """Triangles through each node, and the number of 4-cycles.

        A 4-cycle has two diagonals and each diagonal is an ordered pair twice,
        so the cycle count is a quarter of the sum over ordered pairs (u, w),
        u != w, of C(common neighbours, 2).
        """
        p = self.pattern
        tri = np.zeros(self.n, dtype=np.int64)
        pairs2 = 0
        work = np.cumsum(p @ self.sdeg)
        lo = 0
        while lo < self.n:
            hi = max(lo + 1, int(np.searchsorted(work, work[lo] + _BLOCK_WORK)))
            block = (p[lo:hi] @ p).tocsr()
            tri[lo:hi] = np.asarray(block.multiply(p[lo:hi]).sum(axis=1)).ravel() // 2
            coo = block.tocoo()
            common = coo.data[coo.row + lo != coo.col].astype(np.int64)
            pairs2 += int((common * (common - 1) // 2).sum())
            lo = hi
        return tri, pairs2 // 4

    @property
    def triangles(self) -> int:
        return int(self.walks[0].sum()) // 3

    @property
    def squares(self) -> int:
        return self.walks[1]

    @cached_property
    def local_clustering(self) -> np.ndarray:
        wedges = self.sdeg * (self.sdeg - 1) // 2
        out = np.zeros(self.n)
        ok = wedges > 0
        out[ok] = self.walks[0][ok] / wedges[ok]
        return out

    # -- distances ---------------------------------------------------------------

    @cached_property
    def lcc_pattern(self) -> sparse.csr_array:
        nodes = self.lcc_nodes
        return self.pattern[nodes][:, nodes].tocsr()

    def hop_counts(self, sources=None) -> tuple[np.ndarray, np.ndarray]:
        """Ordered-pair count per hop from the sources (all LCC nodes by
        default), and each source's eccentricity, on the largest component."""
        p = self.lcc_pattern
        n = p.shape[0]
        sources = np.arange(n) if sources is None else np.asarray(sources)
        counts = np.zeros(1, dtype=np.int64)
        eccs = []
        for lo in range(0, len(sources), 500):
            d = shortest_path(p, method="D", unweighted=True,
                              indices=sources[lo:lo + 500])
            d = d.astype(np.int64)
            eccs.append(d.max(axis=1))
            c = np.bincount(d.ravel())
            counts = np.pad(counts, (0, max(0, len(c) - len(counts))))
            counts[: len(c)] += c
        return counts, np.concatenate(eccs)

    def eccentricity_bounds(self, budget: int = 1000) -> tuple[int, int, int, int]:
        """Lower and upper bounds on the radius and on the diameter of the
        largest component, from single-source BFS on chosen nodes.

        A BFS from s gives every v max(d(s,v), ecc(s) - d(s,v)) <= ecc(v) <=
        ecc(s) + d(s,v).  Sources alternate between the node with the lowest
        lower bound and the one with the highest upper bound among those not
        yet searched (Takes and Kosters, "Determining the diameter of small
        world networks", 2011), until both pairs of bounds meet or ``budget``
        searches have run.
        """
        p = self.lcc_pattern
        n = p.shape[0]
        lo = np.zeros(n, dtype=np.int64)
        hi = np.full(n, n, dtype=np.int64)
        open_ = np.ones(n, dtype=bool)
        source = int(np.argmax(np.diff(p.indptr)))  # a hub lies near the centre
        for i in range(min(budget, n)):
            d = shortest_path(p, method="D", unweighted=True, indices=source).astype(np.int64)
            ecc = d.max()
            lo = np.maximum(lo, np.maximum(d, ecc - d))
            hi = np.minimum(hi, ecc + d)
            open_[source] = False
            radius_open = open_ & (lo < hi.min())
            diam_open = open_ & (hi > lo.max())
            if not radius_open.any() and not diam_open.any():
                break
            if diam_open.any() and (i % 2 or not radius_open.any()):
                source = int(np.flatnonzero(diam_open)[np.argmax(hi[diam_open])])
            else:
                source = int(np.flatnonzero(radius_open)[np.argmin(lo[radius_open])])
        return int(lo.min()), int(hi.min()), int(lo.max()), int(hi.max())

    # -- matrices ----------------------------------------------------------------

    def _records(self, nodes=None):
        """Endpoints and effective weights of the records inside ``nodes``.

        A component is a network of its own: ratings are centred on the
        mean rating of its records, as when the program takes the LCC.
        """
        u, v, eff = self.u, self.v, self.eff
        if nodes is None:
            return u, v, eff
        inside = np.zeros(self.n, dtype=bool)
        inside[nodes] = True
        keep = inside[u]
        u, v, eff = u[keep], v[keep], eff[keep]
        if self.wtype in RATING:
            raw = self.ds.weight[keep]
            eff = raw - raw.mean()
        return u, v, eff

    def adjacency(self, nodes=None, symmetric=None) -> sparse.csr_array:
        """Pair-weight adjacency over the combined node space, or the nodes given.

        Parallel edges add up; orientations fold away when ``symmetric``.
        """
        symmetric = not self.directed if symmetric is None else symmetric
        u, v, w = self._records(nodes)
        if symmetric:
            off = u != v
            u, v, w = (np.concatenate([u, v[off]]), np.concatenate([v, u[off]]),
                       np.concatenate([w, w[off]]))
        a = sparse.csr_array((w, (u, v)), shape=(self.n, self.n))
        if nodes is not None:
            a = a[nodes][:, nodes].tocsr()
        return a

    def node_weights(self, nodes=None) -> np.ndarray:
        u, v, eff = self._records(nodes)
        aw = np.abs(eff)
        w = np.bincount(u, aw, self.n) + np.bincount(v, aw, self.n)
        return w if nodes is None else w[nodes]


def multiplicities(wtype, weight, ts, records) -> np.ndarray:
    """Edges per record: the third column counts them in unweighted and
    positive networks without timestamps, otherwise a record is one edge."""
    if wtype in ("unweighted", "positive") and weight is not None and ts is None:
        return np.rint(weight).astype(np.int64)
    return np.ones(records, dtype=np.int64)


def _pair_key(a, b, fmt, n):
    if fmt == "sym":
        a, b = np.minimum(a, b), np.maximum(a, b)
    return a.astype(np.int64) * (n + 1) + b
