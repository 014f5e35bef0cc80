"""Checks of the program's outputs against the benchmark's own computations.

Every check returns a list of problems; an empty list means the output
passed.  Expected values come from :class:`model.Model`, built from the
arrays the inputs were written from, or from properties any correct output
has (bounds, monotone curves, agreement between two output files).
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy import sparse

from model import Model, multiplicities
from workloads import MULTI, WEIGHT_COLUMN

STAT_NAMES = (
    "size", "volume", "uniquevolume", "weight", "avgdegree", "fill", "maxdegree",
    "relmaxdegree", "reciprocity", "negativity", "coco", "cocorel", "cocorelinv",
    "cocos", "twostars", "threestars", "fourstars", "triangles", "squares", "tour4",
    "power", "gini", "dentropyn", "own", "assortativity", "clusco", "clusco2",
    "clusco_signed", "clusco_signed_rel", "diam", "radius", "meandist", "mediandist",
    "diam_eff", "snorm", "alcon", "conflict", "frustration", "anticonflict", "nonbip",
    "nonbipn",
)
DENSE_LIMIT = 500  # the program's dense-solver cut-off; below it spectra are exact
EXACT_THRESHOLD = 20000  # the CLI default --exact-threshold
SAMPLE_SOURCES = 1000  # the CLI default --sample-sources
K = 49  # the CLI default --k

# plot kind -> the file slugs it writes
PLOT_FILES = {
    "temporal": ["temporal-distribution"],
    "weight": ["weight-distribution"],
    "multiplicity": ["multiplicity-distribution"],
    "degree": ["degree-distribution", "cumulative-degree-distribution"],
    "lorenz": ["lorenz"],
    "out-in": ["out-in-comparison"],
    "assortativity": ["assortativity-plot"],
    "clustering": ["clustering-distribution"],
    "spectrum": [f"spectrum-{p}-{m}" for m in ("adjacency", "normalized", "laplacian")
                 for p in ("topk", "cumulative")],
    "complex-eigenvalues": ["complex-eigenvalues"],
    "distance": ["distance-distribution"],
    "temporal-distance": ["temporal-distance-distribution"],
    "drawing": ["drawing-A", "drawing-N", "drawing-L"],
}
PLOT_KINDS = tuple(PLOT_FILES)


# -- reading outputs ---------------------------------------------------------------


def read_stats(path: Path) -> dict[str, list[str]]:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        cols = line.split("\t")
        rows[cols[0]] = cols[1:]
    return rows


def read_plot(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Header fields and numeric columns of a plot TSV."""
    lines = path.read_text().splitlines()
    header = dict(f.split("=", 1) for f in lines[0].lstrip("# ").split("\t"))
    names = header["columns"].split(",")
    data = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
    data = data.reshape(len(lines) - 1, len(names))
    return header, {name: data[:, i] for i, name in enumerate(names)}


def read_edges(path: Path) -> tuple[list[str], np.ndarray]:
    """Comment lines and the numeric table of an ``out.*`` file."""
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("%")]
    rows = [ln.split() for ln in lines if ln and not ln.startswith("%")]
    return head, np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    a, b = float(a), float(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_) or (math.isnan(a) and math.isnan(b))


# -- which outputs apply -----------------------------------------------------------


def expected_na(md: Model) -> set[str]:
    """Statistics the program must report as NA for this graph, and no others."""
    na = set()
    if not md.directed:
        na |= {"reciprocity", "cocos"}
    if not md.negative:
        na |= {"negativity", "conflict", "clusco_signed", "clusco_signed_rel"}
    else:
        na.add("alcon")
    if md.bip:
        na |= {"assortativity", "clusco", "clusco2", "clusco_signed", "clusco_signed_rel"}
    return na


def applicable_kinds(md: Model) -> set[str]:
    """Plot kinds that apply to the dataset (``plot --all`` skips the rest)."""
    ds = md.ds
    kinds = {"degree", "lorenz", "assortativity", "spectrum", "distance", "drawing"}
    if ds.ts is not None:
        kinds |= {"temporal", "temporal-distance"}
    if ds.weights in WEIGHT_COLUMN:
        kinds.add("weight")
    if ds.weights in MULTI:
        kinds.add("multiplicity")
    if md.directed:
        kinds |= {"out-in", "complex-eigenvalues"}
    if not md.bip:
        kinds.add("clustering")
    return kinds


# -- validate ------------------------------------------------------------------------


def check_validate(stdout: str, rc: int) -> list[str]:
    problems = [f"validate exit code {rc}"] if rc else []
    problems += [f"validate: {ln}" for ln in stdout.splitlines() if ln.startswith("error")]
    return problems


# -- statistics ----------------------------------------------------------------------


def check_stats(md: Model, rows: dict[str, list[str]], exact_distances: bool,
                names=None) -> list[str]:
    """The rows of ``names`` (default all 41): NA exactly where predicted,
    values against the model.

    ``exact_distances`` computes every pairwise distance of the largest
    component; without it, exact distance rows are checked against bounds
    on the radius and the diameter, and against the distance plot.
    """
    problems = []
    na = expected_na(md)
    values = {}
    for name in names or STAT_NAMES:
        row = rows.get(name)
        if row is None:
            problems.append(f"{name}: row missing")
        elif row[0] == "NA":
            if name not in na:
                problems.append(f"{name}: NA ({row[3]}) where a value is expected")
        elif name in na:
            problems.append(f"{name}: value {row[0]} where NA is expected")
        else:
            values[name] = float(row[0])

    def expect(name, want, rel=1e-9):
        if name in values and not _close(values[name], want, rel):
            problems.append(f"{name}: {values[name]!r} != expected {want!r}")

    n, m = md.n, md.m
    deg = md.degrees
    expect("size", n)
    expect("volume", m)
    expect("uniquevolume", md.unique_pairs)
    expect("weight", float(np.abs(md.eff).sum()))
    expect("avgdegree", 2 * m / n)
    possible = md.n1 * (n - md.n1) if md.bip else n * (n - 1)
    expect("fill", md.unique_pairs / possible * (1 if md.bip or md.directed else 2))
    expect("maxdegree", int(deg.max()))
    expect("relmaxdegree", deg.max() / (2 * m / n))
    if md.directed:
        expect("reciprocity", md.reciprocity)
        expect("cocos", md.largest_scc)
    if md.negative:
        expect("negativity", float((md.eff < 0).sum()) / m)
    coco = int(np.bincount(md.labels).max())
    expect("coco", coco)
    expect("cocorel", coco / n)
    expect("cocorelinv", 1 - coco / n)
    wedges = md.stars(2)
    expect("twostars", wedges)
    expect("threestars", md.stars(3))
    expect("fourstars", md.stars(4))
    expect("triangles", md.triangles)
    expect("squares", md.squares)
    expect("tour4", 8 * md.squares + 4 * wedges + md.pattern.nnz)
    nz = np.sort(deg[deg > 0]).astype(np.float64)
    expect("power", 1 + len(nz) / np.log(nz / nz[0]).sum())
    ranks = np.arange(1, n + 1)
    expect("gini", 2 * (ranks * np.sort(deg)).sum() / (n * deg.sum()) - (n + 1) / n)
    share = nz / nz.sum()
    expect("dentropyn", -(share * np.log(share)).sum() / math.log(n))
    x = np.arange(n + 1) / n
    y = np.concatenate([[0.0], np.cumsum(np.sort(deg)) / deg.sum()])
    expect("own", 1 - np.interp(0.0, y + x - 1, x))  # Lorenz curve meets y = 1 - x
    if md.negative and not md.bip:
        signs = md.adjacency(symmetric=True)
        signs.data = np.sign(signs.data)
        tr3 = float((signs @ signs).multiply(signs).sum())
        expect("clusco_signed", tr3 / (2 * wedges) if wedges else float("nan"))
        t = md.triangles
        expect("clusco_signed_rel", tr3 / 6 / t if t else float("nan"))
    if not md.bip:
        expect("assortativity", _assortativity(md))
        expect("clusco", 3 * md.triangles / wedges if wedges else float("nan"))
        expect("clusco2", float(md.local_clustering.mean()))
    problems += _check_distances(md, rows, values, exact_distances)
    problems += _check_spectral(md, values)
    return problems


def _assortativity(md: Model) -> float:
    """Pearson correlation of the degrees at the two ends of each edge."""
    if md.directed:
        out = np.bincount(md.u, md.mult, md.n)
        inn = np.bincount(md.v, md.mult, md.n)
        x, y, w = out[md.u], inn[md.v], md.mult
    else:
        deg = md.degrees
        x = np.concatenate([deg[md.u], deg[md.v]])
        y = np.concatenate([deg[md.v], deg[md.u]])
        w = np.concatenate([md.mult, md.mult])
    cov = np.cov(x, y, aweights=w)
    return float(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]))


def _check_distances(md, rows, values, exact) -> list[str]:
    problems = []
    names = ("diam", "radius", "meandist", "mediandist", "diam_eff")
    if any(k not in values for k in names):
        return problems
    diam, radius, mean, median, eff = (values[k] for k in names)
    lcc = len(md.lcc_nodes)
    sampled = lcc > EXACT_THRESHOLD
    for k in names:
        method, params = rows[k][2], rows[k][3]
        if method != ("estimated" if sampled else "exact"):
            problems.append(f"{k}: method {method} on a {lcc}-node component")
        if sampled and f"sources={SAMPLE_SOURCES}" not in params.split(";"):
            problems.append(f"{k}: parameters {params} lack sources={SAMPLE_SOURCES}")
    # radius <= mediandist does not hold in general (a path has radius n/2
    # and median distance about n/3), so the median is bounded by the diameter
    if not (median <= diam and eff <= diam and 0 < mean <= diam
            and radius <= diam <= 2 * radius):
        problems.append(f"distance rows inconsistent: radius {radius}, median {median}, "
                        f"mean {mean}, effective {eff}, diameter {diam}")
    if sampled:
        return problems
    if exact:
        counts, eccs = md.hop_counts()
        want = {"diam": eccs.max(), "radius": eccs.min(), **_pair_distances(counts)}
        for k in names:
            if not _close(values[k], want[k]):
                problems.append(f"{k}: {values[k]!r} != expected {want[k]!r}")
        return problems
    # radius and diameter from BFS bounds; the other rows are checked
    # against the distance plot (_plot_distance)
    r_lo, r_hi, d_lo, d_hi = md.eccentricity_bounds()
    if not (r_lo <= radius <= r_hi and d_lo <= diam <= d_hi):
        problems.append(f"radius {radius} or diameter {diam} outside the BFS bounds "
                        f"[{r_lo}, {r_hi}] and [{d_lo}, {d_hi}]")
    return problems


def _pair_distances(counts) -> dict[str, float]:
    """Mean, lower median and effective diameter from exact ordered-pair counts
    per hop (pairs (u, u) at hop 0 included)."""
    cum = np.cumsum(counts)
    return {
        "meandist": (np.arange(len(counts)) * counts).sum() / cum[-1],
        "mediandist": int(np.argmax(cum >= (cum[-1] + 1) // 2)),
        "diam_eff": _effective_diameter(counts),
    }


def _effective_diameter(counts) -> float:
    """Hops within which 90% of the distinct pairs lie, interpolating linearly."""
    pairs = counts.astype(np.float64).copy()
    pairs[0] = 0
    share = np.concatenate([[0.0], np.cumsum(pairs) / pairs.sum()])  # share[h] after h-1 hops
    for h in range(1, len(share)):
        if share[h] >= 0.9:
            lo, hi = share[h - 1], share[h]
            return float(h - 1) if hi == lo else (h - 2) + (0.9 - lo) / (hi - lo)
    return float(len(counts) - 1)


def _norm_bounds(a) -> tuple[float, float]:
    """Lower and upper bounds on the spectral norm from row and column norms."""
    sq = a.multiply(a)
    lower = math.sqrt(max(sq.sum(axis=1).max(), sq.sum(axis=0).max()))
    absa = abs(a)
    upper = math.sqrt(absa.sum(axis=1).max() * absa.sum(axis=0).max())
    return lower, upper


def _check_spectral(md: Model, values) -> list[str]:
    problems = []

    def bound(name, ok, what):
        if name in values and not ok(values[name]):
            problems.append(f"{name}: {values[name]!r} violates {what}")

    a = md.adjacency()
    lower, upper = _norm_bounds(a)
    bound("snorm", lambda x: lower * (1 - 1e-9) <= x <= upper * (1 + 1e-9),
          f"row/column norm bounds [{lower}, {upper}]")
    if md.n <= DENSE_LIMIT and "snorm" in values:
        want = float(np.linalg.norm(a.toarray(), 2))
        if not _close(values["snorm"], want, 1e-8):
            problems.append(f"snorm: {values['snorm']!r} != dense {want!r}")
    if "alcon" in values:
        nodes = md.lcc_nodes
        sym = md.adjacency(nodes, symmetric=True)
        wdeg = np.asarray(sym.sum(axis=1)).ravel()
        k = len(nodes)
        fiedler = k / (k - 1) * wdeg.min()
        bound("alcon", lambda x: 0 < x <= fiedler * (1 + 1e-9), f"(0, {fiedler}] (Fiedler)")
        if k <= DENSE_LIMIT:
            want = float(np.linalg.eigvalsh(np.diag(wdeg) - sym.toarray())[1])
            if not _close(values["alcon"], want, 1e-8, 1e-9 * wdeg.max()):
                problems.append(f"alcon: {values['alcon']!r} != dense {want!r}")
    eps = 1e-9
    bound("frustration", lambda x: 0 <= x <= 0.5, "[0, 1/2]")
    bound("nonbipn", lambda x: -eps <= x <= 1 + eps, "[0, 1]")
    bound("nonbip", lambda x: -eps <= x <= 1 + eps, "[0, 1]")
    bound("anticonflict", lambda x: x >= -eps, ">= 0")
    bound("conflict", lambda x: x >= -eps, ">= 0")
    return problems


# -- plots -----------------------------------------------------------------------------


def check_plots(md: Model, base: Path, kinds, all_mode: bool, skipped: set[str],
                stats_rows: dict[str, list[str]] | None, exact_distances: bool) -> list[str]:
    """The plot files of one dataset: present where they apply, and correct.

    With ``all_mode`` the kinds that do not apply must be reported as
    skipped; any other skip is a failure.
    """
    problems = []
    applicable = applicable_kinds(md)
    net = md.ds.name
    for kind in sorted(skipped - (set(kinds) - applicable if all_mode else set())):
        problems.append(f"plot {kind}: skipped")
    for kind in kinds:
        if kind not in applicable or kind in skipped:
            continue
        for slug in PLOT_FILES[kind]:
            tsv, svg = base / f"plot.{slug}.{net}.tsv", base / f"plot.{slug}.{net}.svg"
            if not tsv.exists() or not svg.exists():
                problems.append(f"plot {slug}: file missing")
                continue
            problems += [f"plot {slug}: {p}" for p in check_svg(svg)]
            check = _PLOT_CHECKS.get(slug.rsplit("-", 1)[0] if kind in ("spectrum", "drawing")
                                     else slug)
            if check is not None:
                header, cols = read_plot(tsv)
                problems += [f"plot {slug}: {p}" for p in
                             check(md, header, cols, slug=slug, base=base,
                                   stats=stats_rows, exact=exact_distances)]
    return problems


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.fromstring(path.read_bytes())
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    return [] if root.tag.endswith("svg") else [f"SVG root is {root.tag}"]


def _same(got, want, what, rel=1e-9, atol=1e-12) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    bad = ~np.isclose(got, want, rtol=rel, atol=atol)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{what}: row {i} is {float(got[i])!r}, expected {float(want[i])!r}"]
    return []


def _plot_degree(md, h, c, **_):
    values, counts = np.unique(md.degrees[md.degrees > 0], return_counts=True)
    return _same(c["degree"], values, "degree") + _same(c["count"], counts, "count")


def _plot_cumulative_degree(md, h, c, **_):
    deg = np.sort(md.degrees)
    want = 1 - np.searchsorted(deg, c["degree"], side="right") / len(deg)
    return _same(c["fraction_greater"], want, "fraction_greater")


def _plot_lorenz(md, h, c, **_):
    deg = np.sort(md.degrees).astype(np.float64)
    x = np.arange(len(deg) + 1) / len(deg)
    y = np.concatenate([[0.0], np.cumsum(deg) / deg.sum()])
    return _same(c["node_fraction"], x, "node_fraction") + _same(c["edge_fraction"], y, "edge_fraction")


def _plot_out_in(md, h, c, **_):
    out = np.bincount(md.u, md.mult, md.n)
    inn = np.bincount(md.v, md.mult, md.n)
    return (_same(c["node"], np.arange(1, md.n + 1), "node")
            + _same(c["outdegree"], out, "outdegree") + _same(c["indegree"], inn, "indegree"))


def _plot_assortativity(md, h, c, **_):
    keep = md.sdeg > 0
    avg = (md.pattern @ md.degrees.astype(np.float64))[keep] / md.sdeg[keep]
    return (_same(c["node"], np.flatnonzero(keep) + 1, "node")
            + _same(c["degree"], md.degrees[keep], "degree")
            + _same(c["neighbor_avg_degree"], avg, "neighbor_avg_degree"))


def _plot_clustering(md, h, c, **_):
    values, counts = np.unique(md.local_clustering, return_counts=True)
    return (_same(c["local_clustering"], values, "local_clustering")
            + _same(c["fraction_at_most"], np.cumsum(counts) / md.n, "fraction_at_most"))


def _plot_multiplicity(md, h, c, **_):
    ds = md.ds
    u = ds.src - 1
    v = ds.dst - 1 + (ds.n1 if md.bip else 0)
    if not md.directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    _, inv = np.unique(u * ds.n + v, return_inverse=True)
    per_pair = np.bincount(inv, multiplicities(ds.weights, ds.weight, ds.ts, len(ds.src)))
    values, counts = np.unique(per_pair, return_counts=True)
    return _same(c["multiplicity"], values, "multiplicity") + _same(c["count"], counts, "count")


def _plot_weight(md, h, c, **_):
    values, counts = np.unique(md.ds.weight, return_counts=True)
    return _same(c["weight"], values, "weight") + _same(c["count"], counts, "count")


def _plot_temporal(md, h, c, **_):
    problems = []
    if c["count"].sum() != len(md.ds.ts):
        problems.append(f"counts add up to {c['count'].sum()}, not {len(md.ds.ts)}")
    if c["time"].min() != md.ds.ts.min():
        problems.append("first bin does not start at the earliest timestamp")
    return problems


def _curve(frac, what) -> list[str]:
    if len(frac) == 0 or np.any(np.diff(frac) < 0) or not _close(frac[-1], 1.0, 1e-12):
        return [f"{what}: fractions not increasing to 1"]
    return []


def _plot_distance(md, h, c, stats=None, exact=False, **_):
    frac = c["fraction_within"]
    problems = _curve(frac, "fraction_within")
    if problems:
        return problems
    mean = float(np.sum(1 - frac[:-1]))  # E[hops] as a sum of tail shares
    if h.get("method") == "exact":
        # exact fractions are counts over the n^2 ordered pairs of the component
        pairs = frac * len(md.lcc_nodes) ** 2
        if np.max(np.abs(pairs - np.rint(pairs))) > 1e-3:
            return ["exact fractions are not pair counts over the largest component"]
        counts = np.diff(np.rint(pairs), prepend=0.0)
        want = {"diam": len(frac) - 1, **_pair_distances(counts)}
    else:
        want = {"meandist": mean}
    for k, value in want.items():
        row = (stats or {}).get(k, ["NA"])
        if row[0] != "NA" and not _close(value, float(row[0]), 1e-9):
            problems.append(f"{k} {row[0]} disagrees with the plot's {float(value)!r}")
    if exact:
        counts, _ = md.hop_counts()
        problems += _same(frac, np.cumsum(counts) / counts.sum(), "fraction_within")
    return problems


def _plot_temporal_distance(md, h, c, base=None, **_):
    ts = md.ds.ts
    lo, hi = ts.min(), ts.max()
    cuts = [lo + (hi - lo) * (i + 1) / 5 for i in range(5)]
    problems = []
    times = c["time"]
    if not np.all(np.isin(times, cuts)):
        problems.append("snapshot times are not the five equal cuts")
    for cut in np.unique(times):
        problems += _curve(c["fraction_within"][times == cut], f"snapshot {cut:.0f}")
    whole = base / f"plot.distance-distribution.{md.ds.name}.tsv"
    if whole.exists() and not problems:
        last = c["fraction_within"][times == times.max()]
        problems += _same(last, read_plot(whole)[1]["fraction_within"], "last snapshot")
    return problems


def _operator(md, matrix, nodes):
    """The program's characteristic matrices (spectral.py docstring) on ``nodes``."""
    a = md.adjacency(nodes)
    w = md.node_weights(nodes)
    if matrix == "A":
        return a
    if matrix == "L":
        return sparse.diags_array(w) - a
    s = sparse.diags_array(w ** -0.5)
    return s @ a @ s


def _plot_drawing(md, h, c, slug=None, **_):
    matrix = slug[-1]
    nodes = c["node"].astype(np.int64) - 1
    want = md.lcc_nodes
    if matrix == "N":
        want = want[md.node_weights(want) > 0]
    if not np.array_equal(nodes, want):
        return [f"nodes differ from the largest component ({len(nodes)} vs {len(want)})"]
    op = _operator(md, matrix, nodes)
    scale = abs(op).sum(axis=1).max()
    problems = []
    for axis in ("x", "y"):
        x = c[axis]
        rayleigh = x @ (op @ x) / (x @ x)
        res = np.linalg.norm(op @ x - rayleigh * x) / (np.linalg.norm(x) * scale)
        if not res <= 1e-6:
            problems.append(f"{axis}: Rayleigh residual {res:.3g}")
    return problems


def _plot_spectrum(md, h, c, slug=None, base=None, **_):
    """Top-k plot against the spectra file, and the spectra file against the model."""
    matrix = slug.rsplit("-", 1)[1]
    path = base / f"spectra.{matrix}.{md.ds.name}.tsv"
    if not path.exists():
        return [f"{path.name} missing"]
    # the residual column is not read: it holds "np.float64(...)" (CHANGES.md)
    values = np.loadtxt(path, usecols=1, ndmin=1)
    shown = c["abs_value"] * c["sign"]
    if len(shown) > len(values) or _same(shown, values[: len(shown)], "top-k"):
        return [f"top-k values differ from {path.name}"]
    nodes = md.lcc_nodes if matrix == "laplacian" else np.arange(md.n)
    if matrix == "normalized":
        nodes = nodes[md.node_weights(nodes) > 0]
    op = _operator(md, {"adjacency": "A", "normalized": "N", "laplacian": "L"}[matrix], nodes)
    scale = abs(op).sum(axis=1).max()
    if len(nodes) <= DENSE_LIMIT:
        want = np.linalg.eigvalsh(op.toarray())
        want = want[np.argsort(want if matrix == "laplacian" else -np.abs(want), kind="stable")]
        got = values
        if matrix != "laplacian":  # ties in |value| may come in either order
            got, want = np.sort(got), np.sort(want)
        return _same(got, want, f"{matrix} eigenvalue", 1e-6) if len(got) == len(want) else [
            f"{len(got)} {matrix} eigenvalues for dimension {len(want)}"]
    if len(values) != min(K, len(nodes)) or np.max(np.abs(values)) > scale * (1 + 1e-9):
        return [f"{len(values)} {matrix} eigenvalues, largest {np.max(np.abs(values))} "
                f"(norm bound {scale})"]
    return []


def _plot_spectrum_cumulative(md, h, c, **_):
    last = (c["cum_count_min"][-1], c["cum_count_max"][-1])
    if np.any(np.diff(c["cum_count_min"]) < 0) or np.any(c["cum_count_max"] < c["cum_count_min"]):
        return ["cumulative counts not increasing, or min above max"]
    dims = {"adjacency": md.n, "laplacian": len(md.lcc_nodes),
            "normalized": int((md.node_weights() > 0).sum())}
    if last != (dims[h["matrix"]],) * 2:
        return [f"last bin counts {last}, dimension {dims[h['matrix']]}"]
    return []


def _plot_complex(md, h, c, **_):
    vals = c["real"] + 1j * c["imag"]
    a = md.adjacency()
    _, upper = _norm_bounds(a)
    problems = []
    if np.max(np.abs(vals)) > upper * (1 + 1e-9):
        problems.append(f"|eigenvalue| {np.max(np.abs(vals))} beyond the norm bound {upper}")
    # a defective eigenvalue 0 of multiplicity m scatters by eps^(1/m), so
    # the tolerance is about the square root of the machine epsilon
    gap = np.abs(vals.conj()[:, None] - vals[None, :]).min(axis=1)
    if np.max(gap) > 1e-6 * upper:
        problems.append(f"eigenvalue {vals[np.argmax(gap)]} has no conjugate")
    if md.n <= DENSE_LIMIT:
        want = np.sort(np.abs(np.linalg.eigvals(a.toarray())))[::-1][: len(vals)]
        problems += _same(np.sort(np.abs(vals))[::-1], want, "|eigenvalue|", 1e-6, 1e-6 * upper)
    return problems


_PLOT_CHECKS = {
    "degree-distribution": _plot_degree,
    "cumulative-degree-distribution": _plot_cumulative_degree,
    "lorenz": _plot_lorenz,
    "out-in-comparison": _plot_out_in,
    "assortativity-plot": _plot_assortativity,
    "clustering-distribution": _plot_clustering,
    "multiplicity-distribution": _plot_multiplicity,
    "weight-distribution": _plot_weight,
    "temporal-distribution": _plot_temporal,
    "distance-distribution": _plot_distance,
    "temporal-distance-distribution": _plot_temporal_distance,
    "drawing": _plot_drawing,
    "spectrum-topk": _plot_spectrum,
    "spectrum-cumulative": _plot_spectrum_cumulative,
    "complex-eigenvalues": _plot_complex,
}


# -- transform ---------------------------------------------------------------------------


def check_transform(md: Model, path: Path) -> list[str]:
    """``transform lcc`` output against the records of the model's largest component."""
    if not path.exists():
        return [f"{path.name} missing"]
    ds = md.ds
    nodes = md.lcc_nodes
    rank = np.full(md.n, -1, dtype=np.int64)
    if md.bip:
        left, right = nodes[nodes < ds.n1], nodes[nodes >= ds.n1]
        rank[left], rank[right] = np.arange(len(left)), np.arange(len(right))
        n1, n2 = len(left), len(right)
    else:
        rank[nodes] = np.arange(len(nodes))
        n1 = n2 = len(nodes)
    keep = rank[ds.src - 1] >= 0
    cols = [rank[ds.src[keep] - 1] + 1, rank[ds.dst[keep] - 1 + (ds.n1 if md.bip else 0)] + 1]
    cols += [col[keep] for col in (ds.weight, ds.ts) if col is not None]
    want = np.stack(cols, axis=1).astype(np.float64)
    head, got = read_edges(path)
    problems = []
    expected_head = [f"% {ds.fmt} {ds.weights}", f"% {len(want)} {n1} {n2}"]
    if head != expected_head:
        problems.append(f"header {head} != {expected_head}")
    if got.shape != want.shape:
        problems.append(f"{got.shape} table, expected {want.shape}")
    elif not np.array_equal(got, want):
        i = int(np.argmax(np.any(got != want, axis=1)))
        problems.append(f"record {i + 1} is {got[i].tolist()}, expected {want[i].tolist()}")
    return problems
