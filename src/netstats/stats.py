"""The network statistics catalog, node features and distance machinery.

Every statistic is addressed by its internal name (``"clusco"``,
``"alcon"``, ...) through :func:`compute` / :func:`compute_all`, and returns
a :class:`StatisticValue` that records which transform of the graph it was
computed on and whether it was estimated.  Dynamic event logs are replayed
to their latest state before anything is measured.

Count statistics (wedges, claws, crosses, triangles, squares, 4-tours)
operate on the underlying simple loopless graph; distance and algebraic
statistics operate on the largest connected component, ignoring edge
directions for connectivity and shortest paths.

A statistic reads the matrices and passes that its :class:`Graph` and
:class:`Workspace` hold: signed clustering runs the one triangle pass with
sign values, and frustration reads the graph's pattern and component labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import spectral
from .graph import (
    Graph,
    GraphError,
    IncompatibleGraphError,
    components,
    largest_connected_component,
    strip_weights,
    undirected,
)
# unused here; perfbench/trace_run.py wraps this name in every module it times
from .graph import latest_state  # noqa: F401
from .io import number_text
from .spectral import MatrixKind, build_operator, eig_symmetric

FULL = "full graph"
LCC = "largest component"
SIMPLE = "underlying simple graph"


@dataclass(frozen=True)
class Options:
    """Thresholds shared by the estimated statistics; all deterministic."""

    exact_threshold: int = 20000  # all-pairs BFS above this many nodes is sampled
    sample_sources: int = 1000
    tol: float = spectral.DEFAULT_TOL
    seed: int = spectral.DEFAULT_SEED


DEFAULT_OPTIONS = Options()


@dataclass(frozen=True)
class StatisticValue:
    name: str
    value: float
    computed_on: str = FULL
    method: str = "exact"
    parameters: dict = field(default_factory=dict)


_REGISTRY: dict[str, "callable"] = {}


def statistic(name):
    """Register a statistic: a function of a :class:`Workspace`."""

    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def statistic_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def compute(g: Graph, name: str, opts: Options = DEFAULT_OPTIONS) -> StatisticValue:
    """Compute one statistic by internal name."""
    if name not in _REGISTRY:
        raise KeyError(name)
    return _REGISTRY[name](Workspace(g, opts))


def compute_all(
    g: Graph, opts: Options = DEFAULT_OPTIONS, names=None
) -> list[tuple[str, StatisticValue | Exception]]:
    """Compute many statistics over one shared workspace.

    Inapplicable or failing statistics are reported as the raised exception
    instead of aborting the batch.
    """
    ws = Workspace(g, opts)
    return [(name, compute_row(ws, name)) for name in names or statistic_names()]


def compute_row(ws: "Workspace", name: str) -> StatisticValue | Exception:
    """One statistic of a batch: its value, or the exception it raised."""
    fn = _REGISTRY.get(name)
    if fn is None:
        raise KeyError(name)
    try:
        return fn(ws)
    except Exception as exc:  # batch runs must not abort
        return exc


class Workspace:
    """Shared per-graph caches so a batch run does each heavy pass once."""

    def __init__(self, g: Graph, opts: Options = DEFAULT_OPTIONS):
        if g.n == 0:
            raise GraphError("statistics are undefined for the empty graph")
        self.raw = g
        self.opts = opts

    @property
    def g(self) -> Graph:
        return self.raw.static

    @cached_property
    def pattern(self):
        return self.g.pattern

    @cached_property
    def sdeg(self) -> np.ndarray:
        return np.diff(self.pattern.indptr).astype(np.int64)

    @cached_property
    def lcc(self) -> Graph:
        """Largest component; the graph itself when it is connected."""
        if self.g.component_labels.max() == 0:
            return self.g
        return largest_connected_component(self.g)

    @cached_property
    def sym_lcc(self) -> Graph:
        """Largest component with edge orientations folded away."""
        return undirected(self.lcc)

    @cached_property
    def hops(self) -> "HopData":
        return _hop_data(self.lcc.pattern, self.opts)

    @cached_property
    def bip_base(self) -> Graph:
        """The :func:`_bipartivity_base` of the largest component."""
        return _bipartivity_base(self.sym_lcc)

    @cached_property
    def triangles(self) -> np.ndarray:
        """Triangles through each node of the simple loopless graph."""
        return _triangles_per_node(self.pattern)

    @cached_property
    def triangle_count(self) -> int:
        return int(self.triangles.sum()) // 3

    @cached_property
    def tour4_trace(self) -> int:
        return _tour4_trace(self.pattern)

    @cached_property
    def wedge_count(self) -> int:
        return _binom_sum(np.bincount(self.sdeg), 2)

    @cached_property
    def signed_triple_trace(self) -> float:
        """Trace of S^3 for the sign matrix S of the simple loopless graph."""
        # S is taken before the loops go: a rating network's weights are
        # centred on the mean of all its records, loops included.  The
        # pattern has no loops, so the diagonal of S is never read.  Each
        # triangle is six closed 3-walks, and the pass credits it to three
        # nodes.
        signs = undirected(self.g).adjacency.sign()
        return 2.0 * float(_triangles_per_node(self.pattern, signs).sum())


def _bipartivity_base(g: Graph) -> Graph:
    """``g`` with weights stripped, orientations folded and loops dropped."""
    # orientations are folded after the weights are stripped: stripping an
    # event log replays it per ordered pair
    g = undirected(strip_weights(g))
    if not g.allows_loops or not np.any(g.src == g.dst):
        return g
    return g.select(g.src != g.dst)


def _nan(name, computed_on=FULL, **params) -> StatisticValue:
    return StatisticValue(name, float("nan"), computed_on, "exact", params)


# -- basic statistics --------------------------------------------------------


@statistic("size")
def stat_size(ws) -> StatisticValue:
    g = ws.g
    params = {"n1": g.n1, "n2": g.n2} if g.is_bipartite else {}
    return StatisticValue("size", g.n, parameters=params)


@statistic("volume")
def stat_volume(ws) -> StatisticValue:
    return StatisticValue("volume", ws.g.m)


@statistic("uniquevolume")
def stat_uniquevolume(ws) -> StatisticValue:
    return StatisticValue("uniquevolume", len(ws.g.pairs.keys))


@statistic("weight")
def stat_weight(ws) -> StatisticValue:
    return StatisticValue("weight", float(np.abs(ws.g.effective_weights).sum()))


@statistic("avgdegree")
def stat_avgdegree(ws) -> StatisticValue:
    g = ws.g
    params = {}
    if g.is_bipartite:
        params = {"d1": g.m / g.n1 if g.n1 else float("nan"),
                  "d2": g.m / g.n2 if g.n2 else float("nan")}
    return StatisticValue("avgdegree", 2 * g.m / g.n, parameters=params)


@statistic("fill")
def stat_fill(ws) -> StatisticValue:
    g = ws.g
    unique_m = len(g.pairs.keys)
    loops = g.allows_loops or (len(g.src) and not g.is_bipartite
                               and bool(np.any(g.src == g.dst)))
    n = g.n
    if g.is_bipartite:
        possible = g.n1 * g.n2
        value = unique_m / possible if possible else float("nan")
    elif g.is_directed:
        possible = n * n if loops else n * (n - 1)
        value = unique_m / possible if possible else float("nan")
    else:
        possible = n * (n + 1) if loops else n * (n - 1)
        value = 2 * unique_m / possible if possible else float("nan")
    return StatisticValue("fill", value)


@statistic("maxdegree")
def stat_maxdegree(ws) -> StatisticValue:
    return StatisticValue("maxdegree", int(ws.g.degrees.max()))


@statistic("relmaxdegree")
def stat_relmaxdegree(ws) -> StatisticValue:
    g = ws.g
    avg = 2 * g.m / g.n
    value = float(g.degrees.max()) / avg if avg else float("nan")
    return StatisticValue("relmaxdegree", value)


@statistic("reciprocity")
def stat_reciprocity(ws) -> StatisticValue:
    g = ws.g
    if not g.is_directed:
        raise IncompatibleGraphError("reciprocity requires a directed graph")
    if g.m == 0:
        return _nan("reciprocity")
    pairs = g.pairs
    reciprocated = int(pairs.sums[pairs.reciprocated()].sum())
    return StatisticValue("reciprocity", reciprocated / g.m)


@statistic("negativity")
def stat_negativity(ws) -> StatisticValue:
    g = ws.g
    if not g.weights.allows_negative:
        raise IncompatibleGraphError("negativity requires signed or rating weights")
    if g.m == 0:
        return _nan("negativity")
    return StatisticValue("negativity", float(np.sum(g.effective_weights < 0)) / g.m)


# -- connectivity ------------------------------------------------------------


@statistic("coco")
def stat_coco(ws) -> StatisticValue:
    sizes = np.bincount(ws.g.component_labels)
    return StatisticValue("coco", int(sizes.max()))


@statistic("cocorel")
def stat_cocorel(ws) -> StatisticValue:
    return StatisticValue("cocorel", stat_coco(ws).value / ws.g.n)


@statistic("cocorelinv")
def stat_cocorelinv(ws) -> StatisticValue:
    return StatisticValue("cocorelinv", 1 - stat_coco(ws).value / ws.g.n)


@statistic("cocos")
def stat_cocos(ws) -> StatisticValue:
    g = ws.g
    if not g.is_directed:
        raise IncompatibleGraphError("strong components require a directed graph")
    # a zero-sum pair keeps its explicit entry, and csgraph counts it as an arc
    _, labels = connected_components(g.adjacency, directed=True, connection="strong")
    return StatisticValue("cocos", int(np.bincount(labels).max()))


# -- count statistics --------------------------------------------------------


def _binom_sum(degree_hist, k) -> int:
    return sum(int(cnt) * math.comb(int(d), k) for d, cnt in enumerate(degree_hist) if cnt)


@statistic("twostars")
def stat_twostars(ws) -> StatisticValue:
    return StatisticValue("twostars", ws.wedge_count, SIMPLE)


@statistic("threestars")
def stat_threestars(ws) -> StatisticValue:
    hist = np.bincount(ws.sdeg)
    return StatisticValue("threestars", _binom_sum(hist, 3), SIMPLE)


@statistic("fourstars")
def stat_fourstars(ws) -> StatisticValue:
    hist = np.bincount(ws.sdeg)
    return StatisticValue("fourstars", _binom_sum(hist, 4), SIMPLE)


@statistic("triangles")
def stat_triangles(ws) -> StatisticValue:
    return StatisticValue("triangles", ws.triangle_count, SIMPLE)


@statistic("squares")
def stat_squares(ws) -> StatisticValue:
    return StatisticValue("squares", _square_count(ws), SIMPLE)


@statistic("tour4")
def stat_tour4(ws) -> StatisticValue:
    q = _square_count(ws)
    m = ws.pattern.nnz // 2
    return StatisticValue("tour4", 8 * q + 4 * ws.wedge_count + 2 * m, SIMPLE)


_CHUNK_WORK = 1_000_000  # bound on intermediate sparse-product entries


def _row_chunks(work: np.ndarray, bound: int = _CHUNK_WORK):
    """Greedy ranges [lo, hi) of integral ``work`` summing to at most ``bound``.

    Each range is as long as the bound allows, and an item above the bound
    forms a range of its own.
    """
    ends = np.concatenate(([0], np.cumsum(work, dtype=np.int64)))
    start = 0
    while start < len(work):
        end = int(np.searchsorted(ends, ends[start] + bound, side="right")) - 1
        end = max(end, start + 1)
        yield start, end
        start = end


def _tour4_trace(pattern) -> int:
    """Tr(A^4) of the simple loopless graph = sum of squared wedge counts."""
    if pattern.nnz == 0:
        return 0
    deg = np.diff(pattern.indptr).astype(np.int64)
    work = pattern @ deg
    total = 0
    for lo, hi in _row_chunks(work):
        block = pattern[lo:hi] @ pattern
        total += int(np.sum(block.data.astype(np.int64) ** 2))
    return total


def _square_count(ws) -> int:
    m = ws.pattern.nnz // 2
    q, rem = divmod(ws.tour4_trace - 4 * ws.wedge_count - 2 * m, 8)
    assert rem == 0, "tour identity violated"
    return q


def _triangles_per_node(pattern, values=None) -> np.ndarray:
    """Triangles through each node, from the degree-ordered orientation.

    F points each edge from its lower (degree, id) end to its higher one
    (Schank and Wagner, WEA 2005; Latapy, TCS 407, 2008), so a triangle
    x < y < z in that order is the edge x->z closing the path x->y->z.
    (F@F)∘F counts it once, at (x, z): its row sums credit x and its column
    sums z.  (Fᵀ@F)∘F counts it at (y, z), and its row sums credit y.  No
    node has more than sqrt(2m) out-neighbours in F, which bounds both
    products.

    With ``values``, each edge of F carries ``values[row, col]`` as an
    integer instead of 1, and a node is credited each triangle's product.
    """
    n = pattern.shape[0]
    out = np.zeros(n, dtype=np.int64)
    if pattern.nnz == 0:
        return out
    deg = np.diff(pattern.indptr)
    rows = np.repeat(np.arange(n), deg)
    cols = pattern.indices
    up = (deg[rows] < deg[cols]) | ((deg[rows] == deg[cols]) & (rows < cols))
    src, dst = rows[up], cols[up]
    data = np.ones(len(src)) if values is None else values[src, dst]
    fwd = sparse.csr_array((data.astype(np.int64), (src, dst)), shape=(n, n))
    # work per row counts entries, whatever they carry
    out_deg = np.bincount(src, minlength=n)
    for lo, hi in _row_chunks(np.bincount(src, out_deg[dst], minlength=n)):
        closed = (fwd[lo:hi] @ fwd).multiply(fwd[lo:hi])
        out[lo:hi] += closed.sum(axis=1)
        out += closed.sum(axis=0)
    back = fwd.T.tocsr()
    for lo, hi in _row_chunks(np.bincount(dst, out_deg[src], minlength=n)):
        out[lo:hi] += (back[lo:hi] @ fwd).multiply(fwd[lo:hi]).sum(axis=1)
    return out


# -- degree distribution -----------------------------------------------------


@statistic("power")
def stat_power(ws) -> StatisticValue:
    deg = ws.g.degrees
    deg = deg[deg > 0]
    if len(deg) == 0:
        return _nan("power")
    dmin = int(deg.min())
    logsum = float(np.log(deg / dmin).sum())
    value = float("inf") if logsum == 0 else 1 + len(deg) / logsum
    return StatisticValue("power", value, parameters={"dmin": dmin})


@statistic("gini")
def stat_gini(ws) -> StatisticValue:
    deg = np.sort(ws.g.degrees)
    n = len(deg)
    total = deg.sum()
    if total == 0:
        return _nan("gini")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return StatisticValue("gini", float(2 * (ranks * deg).sum() / (n * total) - (n + 1) / n))


@statistic("dentropyn")
def stat_dentropyn(ws) -> StatisticValue:
    deg = ws.g.degrees.astype(np.float64)
    two_m = deg.sum()
    n = len(deg)
    if two_m == 0 or n < 2:
        return _nan("dentropyn")
    p = deg[deg > 0] / two_m
    return StatisticValue("dentropyn", float(-(p * np.log(p)).sum() / math.log(n)))


def lorenz_curve(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (X, Y) of the Lorenz curve of a degree sequence, from (0,0) to (1,1)."""
    deg = np.sort(np.asarray(degrees, dtype=np.float64))
    n = len(deg)
    total = deg.sum()
    if n == 0 or total == 0:
        raise GraphError("Lorenz curve needs a nonzero degree sequence")
    x = np.arange(n + 1) / n
    y = np.concatenate([[0.0], np.cumsum(deg) / total])
    return x, y


@statistic("own")
def stat_own(ws) -> StatisticValue:
    deg = ws.g.degrees
    if deg.sum() == 0:
        return _nan("own")
    x, y = lorenz_curve(deg)
    # intersection of the curve with y = 1 - x; g(x) = y(x) + x - 1 is increasing
    gvals = y + x - 1
    i = int(np.searchsorted(gvals > 0, True))
    if i == 0:
        return StatisticValue("own", float(y[0]))
    x0, x1, y0, y1 = x[i - 1], x[i], y[i - 1], y[i]
    slope = (y1 - y0) / (x1 - x0)
    xi = (1 - y0 + slope * x0) / (1 + slope)
    return StatisticValue("own", float(1 - xi))


@statistic("assortativity")
def stat_assortativity(ws) -> StatisticValue:
    g = ws.g
    if g.is_bipartite:
        raise IncompatibleGraphError("assortativity is undefined for bipartite graphs")
    if g.m == 0:
        return _nan("assortativity")
    w = g.multiplicities.astype(np.float64)
    if g.is_directed:
        x = g.out_degrees[g.src - 1].astype(np.float64)
        y = g.in_degrees[g.dst - 1].astype(np.float64)
    else:
        deg = g.degrees.astype(np.float64)
        x = np.concatenate([deg[g.src - 1], deg[g.dst - 1]])
        y = np.concatenate([deg[g.dst - 1], deg[g.src - 1]])
        w = np.concatenate([w, w])
    return StatisticValue("assortativity", _weighted_pearson(x, y, w))


def _weighted_pearson(x, y, w) -> float:
    total = w.sum()
    mx, my = (w * x).sum() / total, (w * y).sum() / total
    cov = (w * (x - mx) * (y - my)).sum() / total
    vx = (w * (x - mx) ** 2).sum() / total
    vy = (w * (y - my) ** 2).sum() / total
    if vx <= 0 or vy <= 0:
        return float("nan")
    return float(cov / math.sqrt(vx * vy))


# -- clustering --------------------------------------------------------------


def _require_unipartite(g, what):
    if g.is_bipartite:
        raise IncompatibleGraphError(f"{what} is undefined for bipartite graphs")


@statistic("clusco")
def stat_clusco(ws) -> StatisticValue:
    _require_unipartite(ws.g, "the clustering coefficient")
    s = ws.wedge_count
    value = float("nan") if s == 0 else 3 * ws.triangle_count / s
    return StatisticValue("clusco", value, SIMPLE)


@statistic("clusco2")
def stat_clusco2(ws) -> StatisticValue:
    _require_unipartite(ws.g, "the clustering coefficient")
    values = _local_clustering_values(ws)
    return StatisticValue("clusco2", float(values.mean()), SIMPLE)


def _local_clustering_values(ws) -> np.ndarray:
    """Local clustering coefficient per node; 0 where the degree is below 2."""
    wedges = ws.sdeg * (ws.sdeg - 1) // 2
    out = np.zeros(len(wedges), dtype=np.float64)
    mask = wedges > 0
    out[mask] = ws.triangles[mask] / wedges[mask]
    return out


def local_clustering(g: Graph, u: int) -> float:
    """Probability that two distinct neighbors of u are connected; 0 when d(u) <= 1."""
    ws = Workspace(g)
    pattern = ws.pattern
    i = ws.g._check_node(u)
    nbrs = pattern.indices[pattern.indptr[i] : pattern.indptr[i + 1]]
    d = len(nbrs)
    if d <= 1:
        return 0.0
    links = pattern[nbrs][:, nbrs].nnz // 2
    return links / (d * (d - 1) / 2)


@statistic("clusco_signed")
def stat_clusco_signed(ws) -> StatisticValue:
    g = ws.g
    _require_unipartite(g, "the signed clustering coefficient")
    if not g.weights.allows_negative:
        raise IncompatibleGraphError("signed clustering requires signed or rating weights")
    s = ws.wedge_count
    if s == 0:
        return _nan("clusco_signed", SIMPLE)
    return StatisticValue("clusco_signed", ws.signed_triple_trace / (2 * s), SIMPLE)


@statistic("clusco_signed_rel")
def stat_clusco_signed_rel(ws) -> StatisticValue:
    g = ws.g
    _require_unipartite(g, "the signed clustering coefficient")
    if not g.weights.allows_negative:
        raise IncompatibleGraphError("signed clustering requires signed or rating weights")
    t = ws.triangle_count
    if t == 0:
        return _nan("clusco_signed_rel", SIMPLE)
    balance = ws.signed_triple_trace / 6
    return StatisticValue("clusco_signed_rel", balance / t, SIMPLE)


# -- distances ---------------------------------------------------------------


@dataclass(frozen=True)
class HopData:
    counts: np.ndarray  # ordered-pair count per hop (scaled estimate when sampled)
    eccentricities: np.ndarray  # per sampled source
    sources: int
    exact: bool


def _hop_data(pattern, opts: Options) -> HopData:
    n = pattern.shape[0]
    if n == 0:
        raise GraphError("no nodes")
    sources = _bfs_sources(n, opts)
    exact = n <= opts.exact_threshold
    counts, eccs = _bfs_counts(pattern, sources)
    if not exact:
        counts = counts * (n / len(sources))
    return HopData(counts=counts, eccentricities=eccs, sources=len(sources), exact=exact)


def _bfs_sources(n: int, opts: Options) -> np.ndarray:
    """All nodes up to the exact threshold, else a sorted seeded sample."""
    if n <= opts.exact_threshold:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(opts.seed)
    return np.sort(
        rng.choice(n, size=min(opts.sample_sources, n), replace=False)
    ).astype(np.int64)


# Size bound of one level's gathered frontier words (fixes the batch width).
_GATHER_BYTES = 32 << 20
# Cost of pushing one frontier word along one edge, in pulled word-edges.
_PUSH_COST = 8.0


def _bfs_counts(pattern, sources) -> tuple[np.ndarray, np.ndarray]:
    """Hop histogram summed over sources, and eccentricity per source.

    Multi-source bit-parallel BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): every node holds one uint64 frontier word and one
    word of unreached sources per 64 sources, one bit per source, and the
    popcount of a level's new frontier is that level's hop count.  Sources
    run in batches of words so that a full gather stays under
    ``_GATHER_BYTES``.

    Each level runs in the cheaper direction (Beamer, Asanovic and
    Patterson, "Direction-Optimizing Breadth-First Search", SC 2012).  A
    pull gathers the neighbours' frontier words into the rows that still
    miss a source bit; its work is words x edges of those rows.  A push
    scatters each nonzero frontier word to its node's neighbours; its work
    is the degree sum over those words, times ``_PUSH_COST``.  So the first
    level from the sources and the tail levels push, the dense middle pulls.
    Every source must reach every node.
    """
    n = pattern.shape[0]
    indptr, indices = pattern.indptr, pattern.indices
    deg = np.diff(indptr)
    batch = 64 * max(1, _GATHER_BYTES // (8 * max(len(indices), 1)))
    counts = np.zeros(1, dtype=np.int64)
    eccs = np.zeros(len(sources), dtype=np.int64)
    for lo in range(0, len(sources), batch):
        part = sources[lo : lo + batch]
        bit = np.arange(len(part))
        words = -(-len(part) // 64)
        frontier = np.zeros((words, n), dtype=np.uint64)
        frontier[bit // 64, part] = np.uint64(1) << (bit % 64).astype(np.uint64)
        # source bits not reached yet; the last word may be partial
        unvisited = np.full((words, n), ~np.uint64(0))
        unvisited[-1] >>= np.uint64(64 * words - len(part))
        unvisited ^= frontier
        level_counts = [len(part)]
        while True:
            missing = np.bitwise_or.reduce(unvisited, axis=0) != 0
            push_work = int(deg @ np.count_nonzero(frontier, axis=0))
            pull_work = words * int(deg[missing].sum())
            if _PUSH_COST * push_work < pull_work:
                nxt = _push(frontier, indptr, indices)
            else:
                nxt = _pull(frontier, missing, deg, indices)
            nxt &= unvisited
            reached = int(np.bitwise_count(nxt).sum(dtype=np.int64))
            if reached == 0:
                break
            unvisited ^= nxt
            level_counts.append(reached)
            live = _source_bits(np.bitwise_or.reduce(nxt, axis=1), len(part))
            eccs[lo + np.flatnonzero(live)] = len(level_counts) - 1
            frontier = nxt
        if unvisited.any():
            raise GraphError("distance pass requires a connected graph")
        if len(level_counts) > len(counts):
            counts = np.pad(counts, (0, len(level_counts) - len(counts)))
        counts[: len(level_counts)] += level_counts
    return counts.astype(np.float64), eccs


def _pull(frontier, missing, deg, indices) -> np.ndarray:
    """OR of the neighbours' frontier words, for the rows in ``missing``."""
    rows = np.flatnonzero(missing & (deg > 0))  # reduceat needs nonempty rows
    if len(rows) == 0:
        return np.zeros_like(frontier)
    edges = np.repeat(missing, deg)  # the edges of those rows, in CSR order
    if not edges.all():
        indices = indices[edges]
    starts = np.cumsum(deg[rows]) - deg[rows]
    pulled = np.bitwise_or.reduceat(np.take(frontier, indices, axis=1), starts, axis=1)
    if len(rows) == frontier.shape[1]:
        return pulled
    nxt = np.zeros_like(frontier)
    nxt[:, rows] = pulled
    return nxt


def _push(frontier, indptr, indices) -> np.ndarray:
    """Each nonzero frontier word ORed into its node's neighbours."""
    words, n = frontier.shape
    flat = frontier.ravel()
    active = np.flatnonzero(flat)  # word * n + node
    nodes = active % n
    lens = indptr[nodes + 1] - indptr[nodes]
    nxt = np.zeros(words * n, dtype=np.uint64)
    # pieces of about _GATHER_BYTES / 128 edges, with some 32 bytes of
    # temporaries per edge, stay well below a full gather
    for a, b in _row_chunks(lens, _GATHER_BYTES // 128):
        k = lens[a:b]
        first = np.cumsum(k) - k  # where each word's targets start in the piece
        pos = np.repeat(indptr[nodes[a:b]] - first, k) + np.arange(first[-1] + k[-1])
        targets = indices[pos] + np.repeat(active[a:b] - nodes[a:b], k)
        np.bitwise_or.at(nxt, targets, np.repeat(flat[active[a:b]], k))
    return nxt.reshape(words, n)


def _source_bits(words: np.ndarray, k: int) -> np.ndarray:
    """The first k bits of a word per 64 sources, as one bool per source."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:k].astype(bool)


def distance_histogram(g: Graph, opts: Options = DEFAULT_OPTIONS) -> dict[int, float]:
    """Ordered node-pair count per hop on the largest connected component.

    Includes the n pairs (u, u) at hop 0.  Counts are exact below the
    all-pairs threshold and scaled sample estimates above it.
    """
    ws = Workspace(g, opts)
    data = ws.hops
    return {
        h: (int(c) if data.exact else float(c))
        for h, c in enumerate(data.counts)
        if c > 0 or h == 0
    }


def _dist_params(ws) -> dict:
    if ws.hops.exact:
        return {}
    return {"sources": ws.hops.sources, "seed": ws.opts.seed}


def _dist_method(data: HopData) -> str:
    return "exact" if data.exact else "estimated"


@statistic("diam")
def stat_diam(ws) -> StatisticValue:
    data = ws.hops
    return StatisticValue("diam", int(data.eccentricities.max()), LCC,
                          _dist_method(data), _dist_params(ws))


@statistic("radius")
def stat_radius(ws) -> StatisticValue:
    data = ws.hops
    return StatisticValue("radius", int(data.eccentricities.min()), LCC,
                          _dist_method(data), _dist_params(ws))


@statistic("meandist")
def stat_meandist(ws) -> StatisticValue:
    data = ws.hops
    hops = np.arange(len(data.counts))
    total = data.counts.sum()
    value = float((hops * data.counts).sum() / total)
    return StatisticValue("meandist", value, LCC, _dist_method(data), _dist_params(ws))


@statistic("mediandist")
def stat_mediandist(ws) -> StatisticValue:
    data = ws.hops
    cum = np.cumsum(data.counts)
    threshold = (cum[-1] + 1) // 2 if data.exact else cum[-1] / 2  # lower median
    value = int(np.searchsorted(cum, threshold))
    return StatisticValue("mediandist", value, LCC, _dist_method(data), _dist_params(ws))


@statistic("diam_eff")
def stat_diam_eff(ws) -> StatisticValue:
    data = ws.hops
    counts = data.counts.copy()
    counts[0] = 0  # pairs (u, u) are excluded from the 90% reach
    value = _interpolate_quantile(counts, 0.9)
    return StatisticValue("diam_eff", value, LCC, _dist_method(data), _dist_params(ws))


def _interpolate_quantile(counts: np.ndarray, q: float) -> float:
    """Linear interpolation on the cumulative hop curve anchored at (0, 0)."""
    total = counts.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(counts) / total
    h = int(np.searchsorted(cum, q))
    prev = cum[h - 1] if h > 0 else 0.0
    if cum[h] == prev:
        return float(h)
    return float(h - 1 + (q - prev) / (cum[h] - prev))


def eccentricity(g: Graph, u: int) -> int:
    """Maximal hop distance from u to any node reachable from it."""
    ws = Workspace(g)
    [comp] = components(ws.g, [ws.g.component_labels[ws.g._check_node(u)]])
    _, eccs = _bfs_counts(comp.pattern, np.searchsorted(comp.node_origin, [u]))
    return int(eccs[0])


# -- algebraic statistics ----------------------------------------------------


@statistic("snorm")
def stat_snorm(ws) -> StatisticValue:
    g = ws.g
    if g.m == 0:
        return _nan("snorm")
    op = build_operator(g, MatrixKind.ADJACENCY)
    if g.is_directed:
        value = float(spectral.svd(op, 1, tol=ws.opts.tol, seed=ws.opts.seed).values[0])
    else:
        res = eig_symmetric(op, 1, "largest-absolute",
                            tol=ws.opts.tol, seed=ws.opts.seed)
        value = float(abs(res.values[0]))
    return StatisticValue("snorm", value)


@statistic("alcon")
def stat_alcon(ws) -> StatisticValue:
    g = ws.g
    if g.weights.allows_negative:
        raise IncompatibleGraphError(
            "algebraic connectivity applies to unsigned graphs; see conflict"
        )
    lcc = ws.sym_lcc
    if lcc.n < 2:
        return _nan("alcon", LCC)
    value = _laplacian_smallest(lcc, 2, ws.opts)[1]
    return StatisticValue("alcon", float(value), LCC)


@statistic("conflict")
def stat_conflict(ws) -> StatisticValue:
    g = ws.g
    if not g.weights.allows_negative:
        raise IncompatibleGraphError("algebraic conflict requires signed or rating weights")
    value = _laplacian_smallest(ws.sym_lcc, 1, ws.opts)[0]
    return StatisticValue("conflict", float(value), LCC)


def _laplacian_smallest(g: Graph, k: int, opts: Options) -> np.ndarray:
    op = build_operator(g, MatrixKind.LAPLACIAN)
    res = eig_symmetric(op, min(k, op.dim), "smallest",
                        tol=opts.tol, seed=opts.seed)
    return res.values


# -- bipartivity -------------------------------------------------------------


@statistic("frustration")
def stat_frustration(ws) -> StatisticValue:
    m = _bipartivity_base(ws.g).m
    if m == 0:
        return StatisticValue("frustration", 0.0, FULL)
    f, exact = _min_frustrated_edges(ws.g, ws.opts)
    return StatisticValue(
        "frustration", f / m, FULL,
        "exact" if exact else "estimated",
        {} if exact else {"bound": "upper"},
    )


def _min_frustrated_edges(g: Graph, opts: Options) -> tuple[int, bool]:
    """Minimum same-side edge weight over all bipartitions, per component,
    of the :func:`_bipartivity_base` of ``g``.

    One :func:`components` call cuts the components that are not
    2-colourable out of ``g``, and only those pieces are based and searched;
    a piece's base is the same graph as that component of the whole base.
    """
    total, all_exact = 0, True
    for piece in components(g, np.flatnonzero(~_two_colourable(g))):
        comp = _bipartivity_base(piece)
        ea, eb = (x - 1 for x in comp.pairs.endpoints())
        if comp.n <= 20:
            total += _frustration_exact(comp.n, ea, eb, comp.pairs.sums)
        else:
            f, exact = _frustration_search(comp, ea, eb, comp.pairs.sums, opts)
            total += f
            all_exact = all_exact and exact
    return total, all_exact


def _two_colourable(g: Graph) -> np.ndarray:
    """Per label of ``g.component_labels``: whether the component has no odd
    cycle, orientations and loops ignored.

    The bipartite double cover of the pattern P is [[0, P], [P, 0]]: node
    (v, s) is v + s * n, and each edge {a, b} joins (a, 0) to (b, 1) and
    (a, 1) to (b, 0).  A component is 2-colourable exactly when no path of
    the cover leads from (v, 0) to (v, 1).
    """
    n, labels, p = g.n, g.component_labels, g.pattern
    _, cover_labels = connected_components(sparse.block_array([[None, p], [p, None]]),
                                           directed=False)
    bipartite = np.zeros(labels.max() + 1, dtype=bool)
    bipartite[labels] = cover_labels[:n] != cover_labels[n:]
    return bipartite


def _frustration_exact(nc, ea, eb, ew) -> int:
    best = np.iinfo(np.int64).max
    n_masks = 1 << max(nc - 1, 0)
    step = 1 << 20
    for lo in range(0, n_masks, step):
        masks = np.arange(lo, min(lo + step, n_masks), dtype=np.uint64)
        same = np.zeros(len(masks), dtype=np.int64)
        for a, b, w in zip(ea, eb, ew):
            bit_a = (masks >> np.uint64(a - 1)) & np.uint64(1) if a else 0
            bit_b = (masks >> np.uint64(b - 1)) & np.uint64(1) if b else 0
            same += np.where(bit_a == bit_b, w, 0)
        best = min(best, int(same.min()))
    return best


_BB_NODE_CAP = 40  # beyond this the exact search space is hopeless anyway
# Search nodes expanded before the search settles for the best bipartition
# found; a count, not a deadline, so the value and its exact/estimated flag do
# not depend on machine load.  The densest 40-node component (K40) spends
# about 4.5 s on it (one core of a 2-core x86 machine, Python 3.11).
_BB_EXPANSIONS = 500_000


def _frustration_search(comp: Graph, ea, eb, ew, opts) -> tuple[int, bool]:
    """Branch and bound over a fixed number of expansions; seeded by a spectral bound."""
    nc = comp.n
    upper = _frustration_spectral_bound(comp, ea, eb, ew, opts)
    if upper == 0:
        return 0, True  # a zero upper bound is optimal
    if nc > _BB_NODE_CAP:
        return upper, False
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nc)]
    for a, b, w in zip(ea.tolist(), eb.tolist(), ew.tolist()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    order = sorted(range(nc), key=lambda x: -len(adj[x]))
    best = upper
    assign = np.full(nc, -1, dtype=np.int8)
    expansions = 0

    def walk(i, cost):
        nonlocal best, expansions
        if expansions > _BB_EXPANSIONS or cost >= best:
            return
        if i == nc:
            best = cost
            return
        expansions += 1
        node = order[i]
        for side in (0, 1) if i else (0,):  # first node's side is symmetric
            assign[node] = side
            extra = sum(w for nb, w in adj[node] if assign[nb] == side)
            walk(i + 1, cost + extra)
            assign[node] = -1

    walk(0, 0)
    return best, expansions <= _BB_EXPANSIONS


def _frustration_spectral_bound(comp: Graph, ea, eb, ew, opts) -> int:
    """Cost of the signless Laplacian's rounded eigenvector, improved greedily."""
    nc = comp.n
    op = build_operator(comp, MatrixKind.SIGNLESS_LAPLACIAN)
    try:
        # a loose tolerance is fine: the eigenvector only seeds the rounding
        res = eig_symmetric(op, 1, "smallest", tol=1e-4, seed=opts.seed)
        sides = (res.vectors[:, 0] >= 0).astype(np.int8)
    except GraphError:
        sides = np.zeros(nc, dtype=np.int8)
    return _greedy_flip(sides, ea, eb, ew, nc)[1]


def _bipartition_cost(sides, ea, eb, ew) -> int:
    return int(np.sum(np.where(sides[ea] == sides[eb], ew, 0)))


def _greedy_flip(sides, ea, eb, ew, nc, max_flips: int = 50) -> tuple[np.ndarray, int]:
    """Flip the single most profitable node until no flip reduces the cost.

    The edges are loop-free with integer weights, so the gains stay exact
    when a flip updates only the flipped node and its neighbours.
    """
    ew = ew.astype(np.float64)
    order = np.argsort(np.concatenate([ea, eb]), kind="stable")
    heads = np.concatenate([ea, eb])[order]
    tails = np.concatenate([eb, ea])[order]
    weights = np.concatenate([ew, ew])[order]
    start = np.searchsorted(heads, np.arange(nc + 1))
    same = sides[heads] == sides[tails]
    # same-side minus cross-side weight: the cost drop when the node flips
    gain = np.bincount(heads, weights=np.where(same, weights, -weights), minlength=nc)
    for _ in range(max_flips):
        node = int(gain.argmax())
        if gain[node] <= 0:
            break
        nbrs = tails[start[node] : start[node + 1]]
        w = weights[start[node] : start[node + 1]]
        np.add.at(gain, nbrs, np.where(sides[nbrs] == sides[node], -2 * w, 2 * w))
        gain[node] = -gain[node]
        sides[node] ^= 1
    return sides, _bipartition_cost(sides, ea, eb, ew)


@statistic("anticonflict")
def stat_anticonflict(ws) -> StatisticValue:
    base = ws.bip_base
    if base.m == 0:
        return StatisticValue("anticonflict", 0.0, LCC)
    op = build_operator(base, MatrixKind.SIGNLESS_LAPLACIAN)
    res = eig_symmetric(op, 1, "smallest", tol=ws.opts.tol, seed=ws.opts.seed)
    value = base.n / (8 * base.m) * float(res.values[0])
    return StatisticValue("anticonflict", value, LCC)


@statistic("nonbip")
def stat_nonbip(ws) -> StatisticValue:
    base = ws.bip_base
    if base.m == 0:
        return _nan("nonbip", LCC)
    op = build_operator(base, MatrixKind.ADJACENCY)
    lo, hi = _extreme_eigs(op, ws.opts)
    return StatisticValue("nonbip", 1 - abs(lo / hi), LCC)


@statistic("nonbipn")
def stat_nonbipn(ws) -> StatisticValue:
    base = ws.bip_base
    if base.m == 0:
        return _nan("nonbipn", LCC)
    op = build_operator(base, MatrixKind.NORMALIZED)
    res = eig_symmetric(op, min(1, op.dim), "smallest",
                        tol=ws.opts.tol, seed=ws.opts.seed)
    return StatisticValue("nonbipn", float(res.values[0]) + 1, LCC)


def _extreme_eigs(op, opts) -> tuple[float, float]:
    res = spectral.spectrum(op, 1, "smallest", tol=opts.tol, seed=opts.seed)
    lo = float(res.values[0])
    if len(res.values) == op.dim:
        return lo, float(res.values[-1])
    hi_res = eig_symmetric(op, 1, "largest-absolute", tol=opts.tol, seed=opts.seed)
    hi = float(np.max(hi_res.values))
    if hi <= 0:  # largest-absolute may return the negative extreme
        hi = float(-np.min(hi_res.values))
    return lo, hi


# -- serialization -----------------------------------------------------------


def format_value(v) -> str:
    return number_text([v])[0] if isinstance(v, float) else str(v)


TSV_HEADER = "name\tvalue\tcomputed_on\tmethod\tparameters\n"


def statistics_tsv(rows: list[tuple[str, StatisticValue | Exception]]) -> str:
    """TSV with columns name, value, computed_on, method, parameters.

    Exceptions render as NA rows carrying the failure reason.
    """
    return TSV_HEADER + "".join(statistics_row(name, res) for name, res in rows)


def statistics_row(name: str, res: StatisticValue | Exception) -> str:
    """One line of :func:`statistics_tsv`, newline included."""
    if isinstance(res, Exception):
        return f"{name}\tNA\t-\t-\treason={res}\n"
    params = ";".join(
        f"{k}={format_value(v)}" for k, v in sorted(res.parameters.items())
    ) or "-"
    return (f"{res.name}\t{format_value(res.value)}\t{res.computed_on}"
            f"\t{res.method}\t{params}\n")
