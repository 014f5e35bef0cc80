"""In-memory graph model: formats, weight types, per-node quantities and transforms.

A :class:`Graph` is an immutable edge table plus bookkeeping.  Node ids are
1-based.  Bipartite graphs keep raw left/right ids in the edge table
(left ids in ``1..n1``, right ids in ``1..n2``); everywhere a single "node"
argument is taken, the combined id space is used, in which right node ``j``
is addressed as ``n1 + j``.

Undirected edges are stored once; every operation treats ``{u, v}``
symmetrically.  Loops contribute 2 to the degree (and node weight) of their
endpoint, which keeps the handshake identity ``sum(d) == 2m``.

Every statistic, matrix or transform over the set of distinct node pairs
reads one :class:`PairIndex` (``Graph.pairs``).  A pair is keyed by combined
ids as ``a * (n + 1) + b``, where ``(a, b)`` is ``(u, v)`` for directed
graphs and ``(min(u, v), max(u, v))`` otherwise; a bipartite pair is always
``(left, right)``.  Loops are pairs like any other.  The largest key,
``(n + 1)**2 - 1``, must fit in int64, so a graph has at most
:data:`MAX_NODES` nodes.  ``Graph.adjacency`` sums each pair's records in
input order, and an unordered pair fills both of its entries with that one
sum, so the adjacency of an undirected or bipartite graph is exactly
symmetric.

Every transform is a selection (:meth:`Graph.select`): the records it keeps,
in order, with some fields replaced.  ``node_origin`` is kept unless the
transform renumbers the nodes, so a transform of a largest component still
maps its nodes back.  Two of them are the views that the statistics ignoring
orientation or working per component read: :func:`undirected` forgets edge
orientations, and :func:`components` cuts out weakly connected components
and renumbers their nodes (the largest component is the one with the most
nodes).  ``Graph.pattern`` mirrors the graph's own pair index.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


class GraphError(Exception):
    """Base class for graph construction and usage errors."""


class InvalidNodeError(GraphError):
    """A node id outside the graph's id range."""


class IncompatibleGraphError(GraphError):
    """Operation not defined for this graph's format or weight type."""


class Format(enum.Enum):
    """Network format; the value is the on-disk internal name."""

    UNDIRECTED = "sym"
    DIRECTED = "asym"
    BIPARTITE = "bip"

    @classmethod
    def from_internal(cls, name: str) -> "Format":
        try:
            return cls(name)
        except ValueError:
            raise GraphError(f"unknown format name {name!r}") from None


class WeightType(enum.Enum):
    """Edge weight / multiplicity class; the value is the on-disk internal name."""

    UNWEIGHTED = "unweighted"
    POSITIVE = "positive"  # multiple unweighted edges (multigraph)
    POSWEIGHTED = "posweighted"
    SIGNED = "signed"
    MULTISIGNED = "multisigned"
    WEIGHTED = "weighted"  # ratings, interval scale
    MULTIWEIGHTED = "multiweighted"
    DYNAMIC = "dynamic"
    MULTIPOSWEIGHTED = "multiposweighted"

    @classmethod
    def from_internal(cls, name: str) -> "WeightType":
        try:
            return cls(name)
        except ValueError:
            raise GraphError(f"unknown weight type name {name!r}") from None

    @property
    def allows_multi(self) -> bool:
        return self in _MULTI

    @property
    def is_rating(self) -> bool:
        return self in _RATING

    @property
    def allows_negative(self) -> bool:
        return self in _NEGATIVE

    @property
    def has_weight_column(self) -> bool:
        """True when the third file column is a proper weight (not a count/event)."""
        return self in _WEIGHT_COL


_MULTI = frozenset(
    {
        WeightType.POSITIVE,
        WeightType.MULTISIGNED,
        WeightType.MULTIWEIGHTED,
        WeightType.DYNAMIC,
        WeightType.MULTIPOSWEIGHTED,
    }
)
_RATING = frozenset({WeightType.WEIGHTED, WeightType.MULTIWEIGHTED})
_NEGATIVE = frozenset(
    {
        WeightType.SIGNED,
        WeightType.MULTISIGNED,
        WeightType.WEIGHTED,
        WeightType.MULTIWEIGHTED,
    }
)
_WEIGHT_COL = frozenset(
    {
        WeightType.POSWEIGHTED,
        WeightType.SIGNED,
        WeightType.MULTISIGNED,
        WeightType.WEIGHTED,
        WeightType.MULTIWEIGHTED,
        WeightType.MULTIPOSWEIGHTED,
    }
)

KNOWN_TAGS = frozenset(
    {
        "#acyclic",
        "#incomplete",
        "#join",
        "#kcore",
        "#missingorientation",
        "#lcc",
        "#loop",
        "#nonreciprocal",
        "#regenerate",
        "#zeroweight",
    }
)


# the most nodes whose pair keys a * (n + 1) + b fit in int64
MAX_NODES = math.isqrt(np.iinfo(np.int64).max) - 1


def _frozen(arr, dtype):
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PairIndex:
    """Records grouped by node pair; the module docstring gives the keys."""

    base: int  # key = a * base + b
    keys: np.ndarray  # sorted unique pair keys
    first: np.ndarray  # first record of each pair, in input order
    pair_of: np.ndarray  # pair id (position in ``keys``) of each record
    sums: np.ndarray  # multiplicity sum per pair

    @classmethod
    def build(cls, keys: np.ndarray, base: int, weights: np.ndarray) -> "PairIndex":
        """Group records by key with one stable sort."""
        order = np.argsort(keys, kind="stable")
        new = np.ones(len(keys), dtype=bool)
        new[1:] = np.diff(keys[order]) != 0
        starts = np.flatnonzero(new)
        pair_of = np.empty(len(keys), dtype=np.int64)
        pair_of[order] = np.cumsum(new) - 1
        sums = np.add.reduceat(weights[order], starts)
        return cls(base, *(_frozen(x, x.dtype) for x in
                           (keys[order[starts]], order[starts], pair_of, sums)))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Combined 1-based ids ``(a, b)`` of each pair."""
        return np.divmod(self.keys, self.base)

    def reciprocated(self) -> np.ndarray:
        """Per pair: whether the reversed pair ``(b, a)`` is present; loops are."""
        a, b = self.endpoints()
        reverse = b * self.base + a
        pos = np.searchsorted(self.keys, reverse).clip(max=len(self.keys) - 1)
        return self.keys[pos] == reverse


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """An immutable loaded network.

    ``src``/``dst`` hold the edge table as parsed (one row per file line);
    ``weight`` is the raw third column (multiplicity count, weight, rating,
    or +/-1 event marker depending on ``weights``) and ``timestamp`` the raw
    fourth column.  All derived quantities are cached lazily; the instance
    is safe to share between threads after construction.
    """

    fmt: Format
    weights: WeightType
    n1: int
    n2: int | None  # right side size; None unless bipartite
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray | None = None
    timestamp: np.ndarray | None = None
    tags: frozenset[str] = frozenset()
    node_origin: np.ndarray | None = None  # set by components

    def __post_init__(self):
        object.__setattr__(self, "src", _frozen(self.src, np.int64))
        object.__setattr__(self, "dst", _frozen(self.dst, np.int64))
        if len(self.src) == 0:  # zero-record graphs have no columns
            object.__setattr__(self, "weight", None)
            object.__setattr__(self, "timestamp", None)
        if self.weight is not None:
            object.__setattr__(self, "weight", _frozen(self.weight, np.float64))
        if self.timestamp is not None:
            object.__setattr__(self, "timestamp", _frozen(self.timestamp, np.float64))
        object.__setattr__(self, "tags", frozenset(self.tags))
        if (self.fmt is Format.BIPARTITE) != (self.n2 is not None):
            raise GraphError("n2 must be given exactly for bipartite graphs")
        if len(self.src) != len(self.dst):
            raise GraphError("src/dst length mismatch")
        for col in (self.weight, self.timestamp):
            if col is not None and len(col) != len(self.src):
                raise GraphError("weight/timestamp column length mismatch")
        if self.timestamp is not None and self.weight is None:
            raise GraphError("timestamp column requires the weight column")
        if self.n1 < 0 or (self.n2 or 0) < 0:
            raise GraphError("negative node count")
        if self.n > MAX_NODES:
            raise GraphError(f"{self.n} nodes exceed the limit of {MAX_NODES}")
        if len(self.src):
            hi_src = int(self.src.max())
            hi_dst = int(self.dst.max())
            lo = min(int(self.src.min()), int(self.dst.min()))
            if lo < 1:
                raise GraphError("node ids must be >= 1")
            max_src = self.n1
            max_dst = self.n2 if self.fmt is Format.BIPARTITE else self.n1
            if hi_src > max_src or hi_dst > max_dst:
                raise GraphError("edge references node id beyond declared count")
            if self.fmt is not Format.BIPARTITE and not self.allows_loops:
                if np.any(self.src == self.dst):
                    raise GraphError("loops present without the #loop tag")

    # -- basic shape ----------------------------------------------------

    @property
    def n(self) -> int:
        """Total node count (both sides for bipartite graphs)."""
        return self.n1 + (self.n2 or 0)

    @property
    def is_directed(self) -> bool:
        return self.fmt is Format.DIRECTED

    @property
    def is_bipartite(self) -> bool:
        return self.fmt is Format.BIPARTITE

    @property
    def allows_loops(self) -> bool:
        return "#loop" in self.tags and self.fmt is not Format.BIPARTITE

    @property
    def has_timestamps(self) -> bool:
        return self.timestamp is not None

    @property
    def static(self) -> "Graph":
        """The graph that is measured: an event log's latest state, else itself."""
        return self._latest_state if self.weights is WeightType.DYNAMIC else self

    @cached_property
    def _latest_state(self) -> "Graph":
        # only an event log caches here: caching ``self`` would make every
        # graph a reference cycle
        return latest_state(self)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """Edge count represented by each record (aggregated-line expansion)."""
        if (
            self.weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE)
            and self.weight is not None
            and self.timestamp is None
        ):
            return _frozen(np.rint(self.weight), np.int64)
        return _frozen(np.ones(len(self.src)), np.int64)

    @property
    def m(self) -> int:
        """Number of edges, multiplicities included (events for dynamic graphs)."""
        return int(self.multiplicities.sum())

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints in the combined 1-based id space."""
        if self.is_bipartite:
            return self.src, self.dst + self.n1
        return self.src, self.dst

    def __repr__(self):
        side = f"{self.n1}+{self.n2}" if self.is_bipartite else str(self.n1)
        return (
            f"Graph({self.fmt.value!r}, {self.weights.value!r}, "
            f"n={side}, records={len(self.src)})"
        )

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.fmt is other.fmt
            and self.weights is other.weights
            and self.n1 == other.n1
            and self.n2 == other.n2
            and self.tags == other.tags
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and _col_eq(self.weight, other.weight)
            and _col_eq(self.timestamp, other.timestamp)
        )

    __hash__ = object.__hash__

    def select(self, rows=slice(None), **fields) -> "Graph":
        """The graph on the records ``rows`` picks (all by default); ``fields``
        replace attributes, and ``node_origin`` is kept unless replaced."""
        cols = {k: getattr(self, k) for k in ("src", "dst", "weight", "timestamp")
                if k not in fields}
        picked = {k: None if c is None else c[rows] for k, c in cols.items()}
        return dataclasses.replace(self, **{**picked, **fields})

    # -- per-edge / per-node quantities ----------------------------------

    @cached_property
    def rating_mean(self) -> float:
        """Mean rating over all edge records (rating networks only)."""
        if not self.weights.is_rating:
            raise IncompatibleGraphError("rating mean requires a rating network")
        if self.weight is None or not len(self.weight):
            return 0.0
        return float(self.weight.mean())

    @cached_property
    def effective_weights(self) -> np.ndarray:
        """w(e) per record: 1 (times aggregation) for unweighted classes,
        the stored weight for weighted classes, r - mu for ratings."""
        if self.weight is None or not self.weights.has_weight_column:
            return _frozen(self.multiplicities, np.float64)
        if self.weights.is_rating:
            return _frozen(self.weight - self.rating_mean, np.float64)
        return self.weight

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree per node (index = combined id - 1); loops count twice."""
        u, v = self.endpoints()
        mult = self.multiplicities
        return _frozen(
            np.bincount(u - 1, weights=mult, minlength=self.n)
            + np.bincount(v - 1, weights=mult, minlength=self.n),
            np.int64,
        )

    @cached_property
    def out_degrees(self) -> np.ndarray:
        if not self.is_directed:
            raise IncompatibleGraphError("out-degrees require a directed graph")
        return _frozen(
            np.bincount(self.src - 1, weights=self.multiplicities, minlength=self.n),
            np.int64,
        )

    @cached_property
    def in_degrees(self) -> np.ndarray:
        if not self.is_directed:
            raise IncompatibleGraphError("in-degrees require a directed graph")
        return _frozen(
            np.bincount(self.dst - 1, weights=self.multiplicities, minlength=self.n),
            np.int64,
        )

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Sum of absolute effective edge weights incident to each node."""
        u, v = self.endpoints()
        aw = np.abs(self.effective_weights)
        return _frozen(
            np.bincount(u - 1, weights=aw, minlength=self.n)
            + np.bincount(v - 1, weights=aw, minlength=self.n),
            np.float64,
        )

    def _check_node(self, u: int) -> int:
        if not 1 <= u <= self.n:
            raise InvalidNodeError(f"node {u} outside 1..{self.n}")
        return u - 1

    def degree(self, u: int) -> int:
        return int(self.degrees[self._check_node(u)])

    def in_out_degree(self, u: int) -> tuple[int, int]:
        """(outdegree, indegree) of a node in a directed graph."""
        i = self._check_node(u)
        return int(self.out_degrees[i]), int(self.in_degrees[i])

    def node_weight(self, u: int) -> float:
        return float(self.node_weights[self._check_node(u)])

    def pair_weight(self, u: int, v: int) -> float:
        """Aggregated weight w(u, v); 0 when the nodes are not connected."""
        i, j = self._check_node(u), self._check_node(v)
        return float(self.adjacency[i, j])

    # -- matrix views ----------------------------------------------------

    @cached_property
    def adjacency(self) -> sparse.csr_array:
        """Pair-weight adjacency over the combined node space (n x n).

        Entry ``(a, b)`` sums the effective weights of the pair's records, in
        input order; an unordered pair fills both of its entries with the one
        sum, so the matrix is exactly symmetric for undirected and bipartite
        graphs.  Dynamic graphs use their latest state.
        """
        if self.weights is WeightType.DYNAMIC:
            return self.static.adjacency
        pairs = self.pairs
        a, b = pairs.endpoints()
        w = np.bincount(pairs.pair_of, weights=self.effective_weights, minlength=len(a))
        if not self.is_directed:  # mirror every pair but a loop
            off = a != b
            a, b, w = (np.concatenate([a, b[off]]), np.concatenate([b, a[off]]),
                       np.concatenate([w, w[off]]))
        # each entry is set once, so the conversion sums nothing
        return sparse.coo_array((w, (a - 1, b - 1)), shape=(self.n, self.n)).tocsr()

    @cached_property
    def pairs(self) -> PairIndex:
        """The records grouped by node pair, orientation kept for directed graphs."""
        u, v = self.endpoints()
        if not self.is_directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        base = self.n + 1
        return PairIndex.build(u * base + v, base, self.multiplicities)

    @cached_property
    def pattern(self) -> sparse.csr_array:
        """0/1 symmetric adjacency of the underlying simple loopless graph."""
        if self.weights is WeightType.DYNAMIC:
            return self.static.pattern
        a, b = self.pairs.endpoints()
        keep = a != b
        a, b = a[keep] - 1, b[keep] - 1
        if len(a) == 0:
            return sparse.csr_array((self.n, self.n))
        rows = np.concatenate([a, b])
        cols = np.concatenate([b, a])
        data = np.ones(len(rows), dtype=np.int64)
        pattern = sparse.coo_array((data, (rows, cols)), shape=(self.n, self.n)).tocsr()
        pattern.data[:] = 1  # a reciprocated arc pair sums to 2
        return pattern

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Weakly connected component label per node (0-based combined index)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        _, labels = connected_components(self.pattern, directed=False)
        return _frozen(labels, np.int64)


def _col_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


# -- transforms ------------------------------------------------------------


def strip_weights(g: Graph) -> Graph:
    """The corresponding unweighted graph (multiplicities are kept)."""
    g = g.static
    if g.weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        return g
    kind = WeightType.POSITIVE if g.weights.allows_multi else WeightType.UNWEIGHTED
    # timestamps require the weight column
    weight = None if g.timestamp is None else np.ones(len(g.src))
    return g.select(weights=kind, weight=weight)


def dedupe(g: Graph) -> Graph:
    """The unweighted simple graph on the set underlying the edge multiset.

    Simple (single-edge) graphs map to themselves unchanged.
    """
    g = g.static
    if not g.weights.allows_multi:
        return g
    return g.select(np.sort(g.pairs.first), weights=WeightType.UNWEIGHTED,
                    weight=None, timestamp=None)


def absolute(g: Graph) -> Graph:
    """The unsigned graph |G|: every effective weight replaced by its absolute value."""
    if not g.weights.allows_negative:
        raise IncompatibleGraphError("absolute value requires a signed or rating graph")
    w = np.abs(g.effective_weights)
    kind = (
        WeightType.MULTIPOSWEIGHTED if g.weights.allows_multi else WeightType.POSWEIGHTED
    )
    tags = (g.tags | {"#zeroweight"}) if np.any(w == 0) else g.tags
    return g.select(weights=kind, weight=w, tags=tags)


def negate(g: Graph) -> Graph:
    """The negative graph -G: every effective weight negated.

    Unweighted and positively weighted inputs become signed; their
    aggregated lines are expanded into parallel edges.
    """
    if g.weights is WeightType.DYNAMIC:
        raise IncompatibleGraphError("dynamic event logs cannot be negated")
    kind = WeightType.MULTISIGNED if g.weights.allows_multi else WeightType.SIGNED
    if g.weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        rows = np.repeat(np.arange(len(g.src)), g.multiplicities)
        return g.select(rows, weights=kind, weight=-np.ones(len(rows)))
    return g.select(weights=kind, weight=-g.effective_weights)


def latest_state(g: Graph) -> Graph:
    """Replay a dynamic network's event log; keep edges whose last event adds.

    Events are ordered by timestamp, ties broken by input order.
    """
    if g.weights is not WeightType.DYNAMIC:
        raise IncompatibleGraphError("latest state is defined for dynamic networks")
    m = len(g.src)
    order = np.arange(m) if g.timestamp is None else np.argsort(g.timestamp, kind="stable")
    rank = np.empty(m, dtype=np.int64)  # position in (timestamp, input order)
    rank[order] = np.arange(m)
    pairs = g.pairs
    last = np.zeros(len(pairs.keys), dtype=np.int64)
    np.maximum.at(last, pairs.pair_of, rank)
    signs = g.weight[order] if g.weight is not None else np.ones(m)
    added = order[np.sort(last[signs[last] > 0])]
    return g.select(added, weights=WeightType.UNWEIGHTED, weight=None, timestamp=None)


def undirected(g: Graph) -> Graph:
    """Forget edge orientations; reciprocal edge pairs become parallel edges."""
    if not g.is_directed:
        return g
    remap = {
        WeightType.UNWEIGHTED: WeightType.POSITIVE,
        WeightType.POSWEIGHTED: WeightType.MULTIPOSWEIGHTED,
        WeightType.SIGNED: WeightType.MULTISIGNED,
        WeightType.WEIGHTED: WeightType.MULTIWEIGHTED,
    }
    return g.select(fmt=Format.UNDIRECTED, weights=remap.get(g.weights, g.weights))


def components(g: Graph, labels) -> list[Graph]:
    """Induced subgraphs on the weakly connected components ``labels`` of
    ``g.component_labels``, in that order.

    Node ids are re-consecutivized in their old order (a bipartite graph
    numbers each side on its own); each graph's ``node_origin`` maps new
    combined ids (index + 1) back to the old combined ids.  One stable sort
    of the nodes and one of the records serve every label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not len(labels):
        return []
    # each node's label, or -1 outside the requested components
    comp = np.where(np.isin(g.component_labels, labels), g.component_labels, -1)
    # nodes by (component, side), each group in its old order
    key = 2 * comp + (np.arange(g.n) >= g.n1)
    nodes = np.flatnonzero(comp >= 0)
    nodes = nodes[np.argsort(key[nodes], kind="stable")]
    local = np.empty(g.n, dtype=np.int64)
    local[nodes] = np.arange(len(nodes)) - np.searchsorted(key[nodes], key[nodes])
    # an event log's components come from its latest state, so an event may
    # join the component to a node outside it
    u, v = g.endpoints()
    cu = comp[u - 1]
    rows = np.flatnonzero((cu >= 0) & (cu == comp[v - 1]))
    rows = rows[np.argsort(cu[rows], kind="stable")]
    src, dst = local[u[rows] - 1] + 1, local[v[rows] - 1] + 1
    node_at = np.searchsorted(key[nodes], 2 * labels + [[0], [1], [2]])
    row_at = np.searchsorted(cu[rows], labels + [[0], [1]])
    return [g.select(rows[r0:r1], n1=int(right - left),
                     n2=int(end - right) if g.is_bipartite else None,
                     src=src[r0:r1], dst=dst[r0:r1], node_origin=nodes[left:end] + 1)
            for (r0, r1), (left, right, end) in zip(row_at.T, node_at.T)]


def largest_connected_component(g: Graph) -> Graph:
    """The component with the most nodes; ties go to the smallest label."""
    if g.n == 0:
        raise GraphError("empty graph has no connected component")
    return components(g, [np.bincount(g.component_labels).argmax()])[0]
