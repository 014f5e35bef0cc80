"""Reader/writer for the ``out.*`` edge-table and ``meta.*`` key/value files.

``out.$NETWORK`` is a text file: ``%``-comment lines, then one edge per line
with 2-4 fields separated by ASCII whitespace (source id, target id, optional
weight, optional Unix timestamp).  The first comment line declares the format
and weight type, an optional second one declares edge/node counts.  A field
is a token that numpy's ``astype`` reads, which is Python's literal syntax:
ids as int64, weights and timestamps as float64, so ``+3``, ``007`` and
``1_0`` read 3, 7 and 10.  Data lines hold ASCII only, without NUL or
0x1c-0x1f.  A file of m records has at most ``min(MAX_NODES, 2 m +
NODE_SLACK)`` nodes.

``meta.$NETWORK`` is UTF-8 ``key: value`` lines.  Unknown keys are preserved
byte-for-byte on re-serialization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import MAX_NODES, Format, Graph, GraphError, KNOWN_TAGS, WeightType

CATEGORIES = frozenset(
    {
        "Affiliation",
        "Animal",
        "Authorship",
        "Citation",
        "Coauthorship",
        "Communication",
        "Computer",
        "Feature",
        "Folksonomy",
        "HumanContact",
        "HumanSocial",
        "Hyperlink",
        "Infrastructure",
        "Interaction",
        "Lexical",
        "Metabolic",
        "Misc",
        "OnlineContact",
        "Rating",
        "Social",
        "Software",
        "Text",
        "Trophic",
    }
)


class DatasetError(Exception):
    """A malformed dataset file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Header:
    """The declaration comment lines of an edge file."""

    fmt: Format
    weights: WeightType
    declared_m: int | None = None
    declared_n1: int | None = None
    declared_n2: int | None = None
    extra_comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    message: str
    line: int | None = None

    def as_row(self) -> str:
        line = "" if self.line is None else str(self.line)
        return f"{self.severity}\t{line}\t{self.message}"


@dataclass(frozen=True)
class Metadata:
    """Parsed ``meta.*`` file; raw lines are kept for exact re-serialization."""

    entries: tuple[tuple[str, str], ...]
    raw_lines: tuple[str, ...]

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.entries:
            if k == key:
                return v
        return default

    @property
    def tags(self) -> frozenset[str]:
        value = self.get("tags")
        if not value:
            return frozenset()
        return frozenset(t for t in value.split(" ") if t)

    @property
    def urls(self) -> tuple[str, ...]:
        value = self.get("url")
        if not value:
            return ()
        return tuple(part.strip() for part in value.split(","))


def _as_text(data) -> str:
    if isinstance(data, (str, os.PathLike)) and os.path.exists(data):
        with open(data, "rb") as fh:
            data = fh.read()
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DatasetError(
                f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line
            ) from None
    return data


def parse_out(data, tags: frozenset[str] | None = None) -> tuple[Graph, Header]:
    """Parse an ``out.*`` edge file into a (Graph, Header) pair.

    ``data`` may be bytes, text, a readable file object, or a path.  ``tags``
    are the dataset's meta tags; they gate loop and zero-weight validation.
    A malformed file raises :class:`DatasetError`.  Lines are checked in
    file order, so it names the first offending line; the rules over the
    whole file (timestamps on all lines or none, the declared edge count)
    are checked last.
    """
    text = _as_text(data)
    tags = frozenset(tags or ())
    head = _leading_lines(text)
    header, first_data = _parse_header(head)
    body = text[sum(len(line) + 1 for line in head[:first_data]):]
    return _parse_body(body.encode("utf-8"), first_data + 1, header, tags), header


def _leading_lines(text: str) -> list[str]:
    """The leading ``%`` lines of ``text`` and the line after them."""
    lines, start = [], 0
    while True:
        end = text.find("\n", start)
        lines.append(text[start:] if end < 0 else text[start:end])
        if end < 0 or not lines[-1].lstrip().startswith("%"):
            return lines
        start = end + 1


# Per byte of a body: 0 inside a token, 1 whitespace to ``bytes.split()``, 2 a
# byte no data line may hold, which makes its token unreadable: NUL (numpy's
# fixed-width bytes drop a trailing one), 0x1c-0x1f (``str.split()`` reads
# them as whitespace) and every non-ASCII byte.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\x0b\x0c")] = 1
_BYTE_CLASS[[0, 0x1C, 0x1D, 0x1E, 0x1F, *range(0x80, 0x100)]] = 2

_PIECE_BYTES = 1 << 20  # tokenised at a time, so temporaries stay near a megabyte

NODE_SLACK = 1 << 24
"""Nodes a file may have beyond two per record, so room for isolated nodes."""


def _node_budget(m: int) -> int:
    """The most nodes a file of ``m`` records may declare or reach."""
    return min(MAX_NODES, 2 * m + NODE_SLACK)


class _Fault(Exception):
    """A bulk check of a body failed; :func:`_first_fault` names the line."""


def _parse_body(raw: bytes, first_line: int, header: Header, tags: frozenset[str]) -> Graph:
    """The graph of the body ``raw``, whose first line is ``first_line``.

    Every rule is checked on whole columns; when one fails, the error names
    the first offending line.
    """
    try:
        counts, src, dst, weight, timestamp = (
            np.concatenate(c) for c in zip(*map(_piece_columns, _pieces(raw))))
        m = len(counts)
        given, has_t = counts > 2, counts == 4
        n1, n2 = _sizes(header, int(src.max()) if m else 0, int(dst.max()) if m else 0)
        faults = _weight_faults(header.weights, weight, given, has_t, "#zeroweight" in tags)
        if (header.declared_m not in (None, m)
                or has_t.any() and not has_t.all()
                or not (np.isfinite(weight).all() and np.isfinite(timestamp).all())
                or any(mask.any() for mask, _ in faults)
                or n1 + (n2 or 0) > _node_budget(m)):
            raise _Fault
        graph = Graph(fmt=header.fmt, weights=header.weights, n1=int(n1), n2=n2,
                      src=src, dst=dst, weight=weight if given.any() else None,
                      timestamp=timestamp if has_t.any() else None, tags=tags)
        # identical pairs get identical keys, and keys of at most MAX_NODES nodes do not wrap
        if not header.weights.allows_multi and len(graph.pairs.keys) < m:
            raise _Fault
        return graph
    except (_Fault, ValueError, OverflowError, GraphError):  # Graph checks ids and loops
        raise _first_fault(raw, first_line, header, tags) from None


def _pieces(raw: bytes):
    """Whole lines of ``raw``, about ``_PIECE_BYTES`` at a time."""
    start = 0
    while True:
        end = raw.find(b"\n", start + _PIECE_BYTES) + 1 or len(raw)
        yield raw[start:end]
        if end == len(raw):
            return
        start = end


def _tokens(piece: bytes):
    """The byte classes of ``piece``, and the start and line of each token."""
    byte = np.frombuffer(piece, dtype=np.uint8)
    kind = _BYTE_CLASS[byte]
    in_token = kind != 1
    starts = np.flatnonzero(np.diff(in_token, prepend=False) & in_token)
    return kind, starts, np.searchsorted(np.flatnonzero(byte == 10), starts)


def _piece_columns(piece: bytes):
    """Fields per data line and the columns of whole lines; absent weights
    read 1 and timestamps 0.  Raises on a bad byte, field count or token."""
    kind, starts, line = _tokens(piece)
    counts = np.bincount(line)
    counts = counts[counts > 0]  # blank lines dropped
    if np.any(kind == 2) or len(counts) and (counts.min() < 2 or counts.max() > 4):
        raise _Fault
    tokens = np.array(piece.split(), dtype=bytes)
    first = np.cumsum(counts) - counts
    weight = np.ones(len(counts))
    timestamp = np.zeros(len(counts))
    src = tokens[first].astype(np.int64)
    dst = tokens[first + 1].astype(np.int64)
    for column, j in ((weight, 2), (timestamp, 3)):
        column[counts > j] = tokens[first[counts > j] + j].astype(np.float64)
    return counts, src, dst, weight, timestamp


def _weight_faults(weights, w, given, has_t, zero_ok) -> list:
    """The weight rule as ``(mask, message)`` pairs in the order they apply;
    ``w`` is 1 where not ``given``, and a message may format the record's ``w``."""
    if weights is WeightType.DYNAMIC:
        return [(~given | (np.abs(w) != 1), "dynamic networks need +1/-1 in the third column")]
    if weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        many = w > 1
        return [((w != np.trunc(w)) | (w < 1), "multiplicity {w!r} must be a positive integer"),
                (many & has_t, "aggregated multiplicity not allowed with timestamps"),
                (many & (weights is WeightType.UNWEIGHTED),
                 "multiple edges not allowed in an unweighted network")]
    faults = [(~given, "this weight type requires a weight column")]
    if weights in (WeightType.POSWEIGHTED, WeightType.MULTIPOSWEIGHTED):
        faults.append(((w < 0) | (w == 0) & (not zero_ok),
                       "weight {w!r} out of range for positive weights"))
    elif weights in (WeightType.SIGNED, WeightType.MULTISIGNED):
        faults.append(((w == 0) & (not zero_ok), "zero weight without the #zeroweight tag"))
    return faults  # rating scales allow any real value


def _first_fault(raw: bytes, first_line: int, header: Header, tags) -> DatasetError:
    """The error of the first offending line of a body that failed a bulk check.

    Each rule marks its faulty records.  The first marked record wins, and
    of its faults the first in the order a line is read: fields, ids,
    declared counts, loop, node count, weight, timestamp, weight rule,
    duplicate.  The rules over the whole file come last.
    """
    records, line = [], first_line
    for piece in _pieces(raw):
        records.append(_piece_records(piece, line))
        line += piece.count(b"\n")
    line, count, comment, u, cu, v, cv, w, cw, t, ct = (
        np.concatenate(c) for c in zip(*records))
    m = len(line)
    budget = _node_budget(m)
    declared = _node_count(header, 0, 0)
    if declared > budget:
        return DatasetError(f"declared node count {declared} beyond the budget of "
                            f"{budget} nodes for {m} records", 2)
    n1, bip = header.declared_n1, header.fmt is Format.BIPARTITE
    n2 = header.declared_n2 if bip else n1
    given, has_t = count > 2, count == 4
    token = lambda i, j: repr(raw.split(b"\n")[line[i] - first_line].split()[j].decode())
    rules = [
        (comment, lambda i: "comment lines are only allowed before the data"),
        ((count < 2) | (count > 4), lambda i: f"expected 2-4 fields, found {count[i]}"),
        *((c > 0, lambda i, c=c, j=j, what=what: f"{what} {token(i, j)} " + (
            "does not fit in 64 bits" if c[i] == 2 else "is not an integer"))
          for c, j, what in ((cu, 0, "source id"), (cv, 1, "target id"))),
        ((u < 1) | (v < 1), lambda i: "node ids must be >= 1"),
        (u > (np.inf if n1 is None else n1),
         lambda i: f"source id {u[i]} beyond declared count {n1}"),
        (v > (np.inf if n2 is None else n2),
         lambda i: f"target id {v[i]} beyond declared count {n2}"),
        ((u == v) & (not bip and "#loop" not in tags), lambda i: "loop without the #loop tag"),
        (_node_count(header, *(np.maximum.accumulate(x.astype(float)) for x in (u, v)))
         > budget, lambda i: f"node id {max(u[i], v[i])} makes more than {budget} nodes, "
                             f"the budget for {m} records"),
    ]
    for x, c, j, what in ((w, cw, 2, "weight"), (t, ct, 3, "timestamp")):
        rules += [(c > 0, lambda i, j=j, what=what: f"{what} {token(i, j)} is not numeric"),
                  ((count > j) & ~np.isfinite(x),
                   lambda i, j=j, what=what: f"{what} {token(i, j)} is not finite")]
    rules += [(mask, lambda i, message=message: message.format(w=float(w[i])))
              for mask, message in _weight_faults(header.weights, w, given, has_t,
                                                  "#zeroweight" in tags)]
    if not header.weights.allows_multi:
        a, b = (np.minimum(u, v), np.maximum(u, v)) if header.fmt is Format.UNDIRECTED else (u, v)
        _, seen, pair = np.unique(np.stack([a, b], axis=1), axis=0,
                                  return_index=True, return_inverse=True)
        rules.append((seen[pair.ravel()] != np.arange(m), lambda i: (
            f"duplicate edge ({a[i]}, {b[i]}) in a single-edge weight type")))
    firsts = [int(np.argmax(mask)) if np.any(mask) else m for mask, _ in rules]
    i = min(firsts, default=m)
    if i < m:
        return DatasetError(rules[firsts.index(i)][1](i), int(line[i]))
    if has_t.any() and not has_t.all():
        return DatasetError("timestamps must be present on every line or none",
                            int(line[np.argmin(has_t)]))
    if header.declared_m not in (None, m):
        return DatasetError(f"declared edge count {header.declared_m} but found {m} data lines")
    raise AssertionError("a bulk check failed but no rule marks a record")


def _piece_records(piece: bytes, first_line: int):
    """Per data line of ``piece``, whose first line is ``first_line``: its
    line number, field count, whether it opens with ``%``, and each field's
    value and code: 1 if the token is unreadable, 2 if beyond int64."""
    kind, starts, line = _tokens(piece)
    lines, first, count = np.unique(line, return_index=True, return_counts=True)
    unreadable = np.zeros(len(starts), dtype=bool)
    unreadable[np.searchsorted(starts, np.flatnonzero(kind == 2), side="right") - 1] = True
    tokens = np.array(piece.split(), dtype=bytes)
    fields = []
    for j, dtype in enumerate((np.int64, np.int64, np.float64, np.float64)):
        value, code = np.ones(len(count), dtype), np.zeros(len(count), dtype=np.uint8)
        rows = count > j
        at = first[rows] + j
        value[rows], code[rows] = _read(tokens[at], dtype)
        code[rows] = np.where(unreadable[at], 1, code[rows])
        fields += [value, code]
    comment = np.frombuffer(piece, dtype=np.uint8)[starts[first]] == ord("%")
    return lines + first_line, count, comment, *fields


def _read(tokens: np.ndarray, dtype):
    """``tokens`` read as ``dtype``, and per token a code: 1 if numpy cannot
    read it, 2 if it lies beyond int64; such a token reads 1."""
    code = np.zeros(len(tokens), dtype=np.uint8)
    try:
        return tokens.astype(dtype), code
    except (ValueError, OverflowError):
        value = np.ones(len(tokens), dtype)
    for k in range(len(tokens)):  # one at a time, in a column that failed only
        try:
            value[k] = tokens[k:k + 1].astype(dtype)[0]
        except ValueError:
            code[k] = 1
        except OverflowError:
            code[k] = 2
    return value, code


def _sizes(header: Header, hi_src, hi_dst):
    """``(n1, n2)`` for these largest ids, numbers or arrays; declared counts win over them."""
    n1, n2 = header.declared_n1, header.declared_n2
    if header.fmt is Format.BIPARTITE:
        return (hi_src if n1 is None else n1), (hi_dst if n2 is None else n2)
    return (np.maximum(hi_src, hi_dst) if n1 is None else n1), None


def _node_count(header: Header, hi_src, hi_dst):
    n1, n2 = _sizes(header, hi_src, hi_dst)
    return n1 if n2 is None else n1 + n2


def _parse_header(lines: list[str]) -> tuple[Header, int]:
    if not lines or not lines[0].lstrip().startswith("%"):
        raise DatasetError("first line must be a % comment declaring format/weights", 1)
    head = lines[0].lstrip()[1:].split()
    if len(head) < 2:
        raise DatasetError("header must name a format and a weight type", 1)
    try:
        fmt = Format.from_internal(head[0])
    except Exception:
        raise DatasetError(f"unknown format {head[0]!r}", 1) from None
    try:
        weights = WeightType.from_internal(head[1])
    except Exception:
        raise DatasetError(f"unknown weight type {head[1]!r}", 1) from None

    vals = []
    if len(lines) > 1 and lines[1].lstrip().startswith("%"):
        try:  # split and read as the body is: int() of bytes takes ASCII only
            vals = [int(c) for c in lines[1].lstrip()[1:].encode().split()][:3]
        except ValueError:
            pass
        if any(v < 0 for v in vals):
            raise DatasetError("declared counts must be nonnegative", 2)
    idx = 2 if vals else 1
    extra = []
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        extra.append(lines[idx])
        idx += 1
    return Header(fmt, weights, *(vals + [None] * 3)[:3], tuple(extra)), idx


_BLOCK_ROWS = 1 << 16  # rows formatted at a time, so per-row strings stay few


def number_text(x: np.ndarray) -> list[str]:
    """Each value as an integer if it is a whole number below 1e15, else its repr.

    The one number format of the program's text outputs: edge files, plot
    data and statistics.  ``nan`` and ``inf`` print as their repr.
    """
    x = np.asarray(x, dtype=np.float64)
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e15)
    text = np.empty(len(x), dtype=object)
    text[whole] = list(map(str, x[whole].astype(np.int64).tolist()))
    text[~whole] = list(map(repr, x[~whole].tolist()))
    return text.tolist()


def write_out(g: Graph, header: Header | None = None) -> bytes:
    """Serialize a graph back to the edge-file format (tab separated, LF).

    Round-trips with :func:`parse_out`. The optional ``header`` controls
    whether the count line and extra comments are emitted.
    """
    if header is None:
        header = Header(
            fmt=g.fmt,
            weights=g.weights,
            declared_m=len(g.src),
            declared_n1=g.n1,
            declared_n2=g.n2 if g.is_bipartite else g.n1,
        )
    lines = [f"% {header.fmt.value} {header.weights.value}"]
    if header.declared_m is not None:
        counts = [header.declared_m, header.declared_n1, header.declared_n2]
        lines.append("% " + " ".join(str(c) for c in counts if c is not None))
    lines.extend(header.extra_comments)
    for lo in range(0, len(g.src), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        columns = [map(str, g.src[rows].tolist()), map(str, g.dst[rows].tolist())]
        columns += [number_text(c[rows]) for c in (g.weight, g.timestamp) if c is not None]
        lines.append("\n".join(map("\t".join, zip(*columns))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_meta(data) -> Metadata:
    """Parse a ``meta.*`` file: one ``key: value`` pair per line."""
    text = _as_text(data)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise DatasetError("metadata line without a colon", lineno)
        key, _, value = raw.partition(":")
        entries.append((key.strip(), value.strip()))
    return Metadata(entries=tuple(entries), raw_lines=tuple(lines))


def write_meta(meta: Metadata) -> bytes:
    """Re-serialize metadata, preserving the original lines byte-for-byte."""
    return ("\n".join(meta.raw_lines) + "\n").encode("utf-8") if meta.raw_lines else b""


def _reciprocal_pairs(pairs) -> int:
    """Unordered non-loop pairs of ``Graph.pairs`` whose two arcs are both present."""
    a, b = pairs.endpoints()
    return int(np.count_nonzero(pairs.reciprocated() & (a != b))) // 2


def validate(g: Graph, header: Header, meta: Metadata | None = None) -> list[Finding]:
    """Check a parsed dataset against the format rules; findings are data.

    Errors are rule violations; warnings flag structures the collection's
    inclusion criteria discourage (no giant component, trees, one-to-many
    bipartite patterns).
    """
    findings: list[Finding] = []
    err = lambda msg: findings.append(Finding("error", msg))
    warn = lambda msg: findings.append(Finding("warning", msg))

    tags = meta.tags if meta is not None else g.tags
    for tag in sorted(tags):
        if tag not in KNOWN_TAGS:
            warn(f"unknown tag {tag}")
    if "#kcore" in tags and "#incomplete" not in tags:
        err("#kcore implies the #incomplete tag")
    if "#lcc" in tags and "#incomplete" not in tags:
        err("#lcc implies the #incomplete tag")
    if "#loop" in tags and g.fmt is Format.BIPARTITE:
        err("#loop is only allowed for unipartite networks")
    if "#acyclic" in tags and g.fmt is not Format.DIRECTED:
        err("#acyclic can only be set for directed networks")
    if "#nonreciprocal" in tags and g.fmt is not Format.DIRECTED:
        err("#nonreciprocal is only used for directed networks")
    if "#zeroweight" in tags and g.weights not in (
        WeightType.POSWEIGHTED,
        WeightType.MULTIPOSWEIGHTED,
        WeightType.SIGNED,
        WeightType.MULTISIGNED,
    ):
        warn("#zeroweight is only used for positively weighted and signed networks")

    if g.fmt is Format.DIRECTED:
        reciprocal = _reciprocal_pairs(g.pairs)
        if "#nonreciprocal" in tags and reciprocal > 0:
            err("#nonreciprocal set but reciprocal edges exist")
        if "#acyclic" not in tags and "#nonreciprocal" not in tags and reciprocal < 2:
            err("directed network without #acyclic needs two reciprocal edge pairs")

    if meta is not None:
        for key in ("name", "code", "category"):
            if meta.get(key) is None:
                err(f"metadata key {key!r} is missing")
        code = meta.get("code")
        if code is not None and not 2 <= len(code) <= 3:
            err(f"code {code!r} must be two or three characters")
        category = meta.get("category")
        if category is not None and category not in CATEGORIES:
            warn(f"nonstandard category {category!r}")
        if meta.tags != g.tags and g.tags:
            warn("tags passed to the parser differ from the metadata tags")

    if header.declared_m is not None and header.declared_m != len(g.src):
        err("declared edge count does not match the data")
    if g.weights is WeightType.DYNAMIC and not g.has_timestamps:
        warn("dynamic network without timestamps; relying on line order")

    if g.n > 0 and len(g.src) > 0:
        labels = g.component_labels
        sizes = np.bincount(labels)
        if sizes.max() < 0.5 * g.n:
            warn("no giant connected component (largest spans <50% of nodes)")
        # edges of the simple loopless graph: non-loop pairs, an arc pair once
        unique_m = int(np.count_nonzero(np.not_equal(*g.static.pairs.endpoints())))
        if g.is_directed:
            unique_m -= reciprocal if g.static is g else _reciprocal_pairs(g.static.pairs)
        if unique_m == g.n - len(sizes):
            warn("network is a forest (no cycles)")
        if g.fmt is Format.BIPARTITE:
            deg = g.degrees
            if g.n1 and g.n2 and (np.all(deg[: g.n1] <= 1) or np.all(deg[g.n1:] <= 1)):
                warn("bipartite star pattern: one side has only degree-one nodes")
    return findings
