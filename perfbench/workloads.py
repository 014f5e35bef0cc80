"""Seeded generators for the benchmark's input datasets, with their own writer.

Every dataset keeps the arrays it was written from, so the checks in
``checks.py`` compute their expected values from these arrays and never
from the program's parser or writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMATS = ("sym", "asym", "bip")
WEIGHT_TYPES = ("unweighted", "positive", "posweighted", "signed", "multisigned",
                "weighted", "multiweighted", "dynamic", "multiposweighted")
MULTI = {"positive", "multisigned", "multiweighted", "dynamic", "multiposweighted"}
RATING = {"weighted", "multiweighted"}
NEGATIVE = {"signed", "multisigned", "weighted", "multiweighted"}
WEIGHT_COLUMN = {"posweighted", "signed", "multisigned", "weighted",
                 "multiweighted", "multiposweighted"}


@dataclass
class Dataset:
    """One ``out.*``/``meta.*`` pair, as the arrays it was written from."""

    name: str
    fmt: str
    weights: str
    n1: int
    n2: int | None
    src: np.ndarray  # 1-based ids; right-side ids of bipartite graphs start at 1
    dst: np.ndarray
    weight: np.ndarray | None = None  # the raw third column
    ts: np.ndarray | None = None  # the raw fourth column

    @property
    def n(self) -> int:
        return self.n1 + (self.n2 or 0)

    def write(self, directory: Path) -> Path:
        """Write ``out.NAME`` and ``meta.NAME``; returns the out-file path."""
        cols = [self.src.tolist(), self.dst.tolist()]
        if self.weight is not None:
            cols.append([_number(x) for x in self.weight.tolist()])
        if self.ts is not None:
            cols.append([str(int(x)) for x in self.ts.tolist()])
        n2 = self.n2 if self.n2 is not None else self.n1
        lines = [f"% {self.fmt} {self.weights}", f"% {len(self.src)} {self.n1} {n2}"]
        lines.extend("\t".join(map(str, row)) for row in zip(*cols))
        out = directory / f"out.{self.name}"
        out.write_text("\n".join(lines) + "\n")
        code = "".join(c for c in self.name.upper() if c.isalnum())[:3].ljust(2, "X")
        (directory / f"meta.{self.name}").write_text(
            f"name: {self.name}\ncode: {code}\ncategory: Misc\n"
            f"description: generated benchmark input\n"
        )
        return out


def _number(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


# -- structures ----------------------------------------------------------------


def _tree_edges(rng, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A random spanning tree on nodes 0..len(sides)-1.

    With two sides (bipartite), every edge joins a node of side 0 to one of
    side 1; the first two nodes of ``sides`` must lie on different sides.
    """
    k = len(sides)
    a, b = [], []
    if sides.any():
        first = {0: [0], 1: [1]}
        for i in range(2, k):
            other = first[1 - sides[i]]
            a.append(i)
            b.append(other[int(rng.integers(len(other)))])
            first[sides[i]].append(i)
        a.append(1)
        b.append(0)
    else:
        for i in range(1, k):
            a.append(i)
            b.append(int(rng.integers(i)))
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


def _component(rng, size: int, extra: int, bipartite: bool):
    """Edges of one connected component: a tree plus ``extra`` random edges."""
    if bipartite:
        sides = np.concatenate([[0, 1], rng.integers(0, 2, size - 2)]).astype(np.int64)
    else:
        sides = np.zeros(size, dtype=np.int64)
    a, b = _tree_edges(rng, sides)
    if extra:
        x = rng.integers(0, size, extra * 3)
        y = rng.integers(0, size, extra * 3)
        ok = (x != y) & (sides[x] != sides[y] if bipartite else True)
        a = np.concatenate([a, x[ok][:extra]])
        b = np.concatenate([b, y[ok][:extra]])
    return sides, a, b


def collection_graph(rng, name, fmt, weights, core, extra, small, temporal) -> Dataset:
    """A connected core of ``core`` nodes plus components of the sizes in ``small``.

    Small components stay at 20 nodes or fewer, so the frustration search
    solves them exactly; the core has more than 40 nodes.
    """
    from model import Model

    bip = fmt == "bip"
    parts = [_component(rng, core, extra, bip)]
    parts += [_component(rng, s, int(rng.integers(0, 3)), bip) for s in small]
    src, dst = [], []
    counts = [0, 0]
    for sides, a, b in parts:
        if bip:
            # local id -> 1-based id within its side
            local = np.zeros(len(sides), dtype=np.int64)
            for side in (0, 1):
                idx = np.flatnonzero(sides == side)
                local[idx] = counts[side] + 1 + np.arange(len(idx))
                counts[side] += len(idx)
            left_first = sides[a] == 0
            src.append(np.where(left_first, local[a], local[b]))
            dst.append(np.where(left_first, local[b], local[a]))
        else:
            src.append(a + counts[0] + 1)
            dst.append(b + counts[0] + 1)
            counts[0] += len(sides)
    src, dst = np.concatenate(src), np.concatenate(dst)
    # random orientation, then a random record order
    if not bip:
        flip = rng.random(len(src)) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    if fmt == "asym":
        # validate() asks directed networks for two reciprocal pairs
        src = np.concatenate([src, dst[:2]])
        dst = np.concatenate([dst, src[:2]])
    order = rng.permutation(len(src))
    src, dst = src[order], dst[order]
    if weights in MULTI:
        dup = rng.integers(0, len(src), len(src) // 3)
        src, dst = np.concatenate([src, src[dup]]), np.concatenate([dst, dst[dup]])
    else:
        src, dst = _first_pairs(src, dst, fmt)
    n1, n2 = (counts[0], counts[1]) if bip else (counts[0], None)
    weight, ts = _columns(rng, weights, len(src), temporal)
    ds = Dataset(name, fmt, weights, n1, n2, src, dst, weight, ts)
    if weights == "dynamic":
        # every pair starts with an addition; removals that leave a
        # component of 21-40 nodes are drawn again
        first = np.zeros(len(src), dtype=bool)
        first[_first_index(src, dst, fmt)] = True
        while True:
            ds.weight = np.where(first, 1.0, rng.choice([-1.0, 1.0], len(src), p=[0.3, 0.7]))
            sizes = np.bincount(Model(ds).labels)
            if not np.any((sizes > 20) & (sizes <= 40)):
                break
    return ds


def _pair_key(src, dst, fmt):
    if fmt == "sym":
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    return src * (int(max(src.max(), dst.max())) + 1) + dst


def _first_index(src, dst, fmt):
    _, first = np.unique(_pair_key(src, dst, fmt), return_index=True)
    return np.sort(first)


def _first_pairs(src, dst, fmt):
    keep = _first_index(src, dst, fmt)
    return src[keep], dst[keep]


def _columns(rng, weights, k, temporal):
    """The raw weight and timestamp columns of one weight type."""
    ts = None
    if temporal or weights == "dynamic":
        ts = np.sort(rng.integers(10**9, 10**9 + 10**7, k)).astype(np.float64)
    if weights == "unweighted":
        weight = np.ones(k) if ts is not None else None
    elif weights == "positive":
        weight = np.ones(k) if ts is not None else rng.integers(1, 4, k).astype(np.float64)
    elif weights in ("posweighted", "multiposweighted"):
        weight = np.round(rng.uniform(0.5, 9.5, k), 2)
    elif weights in ("signed", "multisigned"):
        weight = rng.choice([-1.0, 1.0], k, p=[0.3, 0.7])
    elif weights in RATING:
        weight = rng.integers(1, 6, k).astype(np.float64)
    else:  # dynamic: +1 adds the pair, -1 removes it; collection_graph draws the signs
        weight = np.ones(k)
    return weight, ts


# -- workloads -----------------------------------------------------------------


def directed(seed: int, n: int = 36_000, m: int = 300_000) -> list[Dataset]:
    """Uniform random directed multigraph without loops, as acceptance 11 builds it."""
    rng = np.random.default_rng(seed)
    src = rng.integers(1, n + 1, int(m * 1.05))
    dst = rng.integers(1, n + 1, int(m * 1.05))
    keep = src != dst
    src, dst = src[keep][:m], dst[keep][:m]
    return [Dataset("directed", "asym", "positive", n, None, src, dst)]


def powerlaw(seed: int, graphs: int = 3, n: int = 6_000, m: int = 30_000) -> list[Dataset]:
    """Chung-Lu multigraphs with degree exponent 2.5 and one timestamp per edge.

    The eigensolvers' iteration counts vary from one random power-law graph
    to the next, so a run takes several graphs to steady their sum.
    """
    rng = np.random.default_rng(seed)
    w = (np.arange(n) + 10.0) ** (-1 / 1.5)
    p = w / w.sum()
    out = []
    for i in range(graphs):
        src = rng.choice(n, int(m * 1.02), p=p) + 1
        dst = rng.choice(n, int(m * 1.02), p=p) + 1
        keep = src != dst
        src, dst = src[keep][:m], dst[keep][:m]
        # relabel so ids are consecutive over the nodes that have edges
        used, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
        src, dst = inv[:m] + 1, inv[m:] + 1
        ts = np.sort(rng.integers(10**9, 10**9 + 10**8, m)).astype(np.float64)
        out.append(Dataset(f"powerlaw-{i}", "sym", "positive", len(used), None,
                           src, dst, np.ones(m), ts))
    return out


COLLECTION_SIZES = (48, 90, 180, 300, 420, 520, 650)


def collection(seed: int) -> dict[str, list[Dataset]]:
    """About 50 datasets over every format x weight type, in three directories.

    ``undirected`` holds the undirected and bipartite datasets (run with
    ``plot --all``), ``directed`` the directed ones and ``dynamic`` the event
    logs of all three formats (both run with a fixed list of plot kinds).
    """
    rng = np.random.default_rng(seed)
    combos = [(f, w) for f in FORMATS for w in WEIGHT_TYPES]
    # the make-up is the same for every seed: 27 pairs and 23 static ones again
    combos += [(f, w) for f, w in combos if w != "dynamic"][:23]
    dirs: dict[str, list[Dataset]] = {"undirected": [], "directed": [], "dynamic": []}
    for i, (fmt, weights) in enumerate(combos):
        # signed and rating networks that run the spectral plots stay on the
        # dense path: above 500 nodes their Laplacian drawing can fail to
        # converge (CHANGES.md)
        sizes = COLLECTION_SIZES[:4] if weights in NEGATIVE and fmt != "asym" else COLLECTION_SIZES
        core = int(sizes[i % len(sizes)] * rng.uniform(0.9, 1.1))
        extra = int(core * rng.uniform(0.5, 2.5))
        small = [int(s) for s in rng.integers(2, 21, int(rng.integers(0, 6)))]
        temporal = bool(rng.random() < 0.4)
        name = f"{fmt}-{weights}-{i:02d}"
        ds = collection_graph(rng, name, fmt, weights, core, extra, small, temporal)
        key = "dynamic" if weights == "dynamic" else "directed" if fmt == "asym" else "undirected"
        dirs[key].append(ds)
    # a signed network of a core and 600 small components
    sizes = [int(s) for s in rng.integers(3, 9, 600)]
    dirs["undirected"].append(collection_graph(
        rng, "sym-signed-islands", "sym", "signed", 300, 300, sizes, False))
    return dirs
