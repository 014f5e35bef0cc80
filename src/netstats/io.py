"""Reader/writer for the ``out.*`` edge-table and ``meta.*`` key/value files.

``out.$NETWORK`` is a text file: ``%``-comment lines, then one edge per line
with 2-4 whitespace-separated numeric fields (source id, target id, optional
weight, optional Unix timestamp).  The first comment line declares the format
and weight type, an optional second one declares edge/node counts.

``meta.$NETWORK`` is UTF-8 ``key: value`` lines.  Unknown keys are preserved
byte-for-byte on re-serialization.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

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


_INT64_MAX = np.iinfo(np.int64).max


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DatasetError(f"{what} {token!r} is not an integer", line) from None
    if abs(value) > _INT64_MAX:
        raise DatasetError(f"{what} {token!r} does not fit in 64 bits", line)
    return value


def _parse_float(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"{what} {token!r} is not numeric", line) from None
    if not math.isfinite(value):
        raise DatasetError(f"{what} {token!r} is not finite", line)
    return value


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
    graph = _parse_body(body, header, tags)
    if graph is None:
        graph = _graph(header, tags, *_parse_lines(body, first_data + 1, header, tags))
    return graph, header


def _leading_lines(text: str) -> list[str]:
    """The leading ``%`` lines of ``text`` and the line after them."""
    lines, start = [], 0
    while True:
        end = text.find("\n", start)
        lines.append(text[start:] if end < 0 else text[start:end])
        if end < 0 or not lines[-1].lstrip().startswith("%"):
            return lines
        start = end + 1


# Per ASCII byte of a body: 0 inside a token, 1 whitespace to both
# ``bytes.split()`` and ``str.split()``, 2 sends the body to the line loop:
# 0x1c-0x1f split text but not bytes, numpy's fixed-width bytes drop trailing
# NULs, and ``%`` starts a misplaced comment.  Non-ASCII bodies go to the loop
# too, because ``str.split()`` and ``int()`` read more of Unicode.
_BYTE_CLASS = np.zeros(128, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\x0b\x0c")] = 1
_BYTE_CLASS[[0, 0x1C, 0x1D, 0x1E, 0x1F, ord("%")]] = 2


_PIECE_BYTES = 1 << 20  # tokenised at a time, so temporaries stay near a megabyte


def _parse_body(body: str, header: Header, tags: frozenset[str]) -> Graph | None:
    """The graph of ``body``, tokenised and checked with array operations.

    Returns None when any record may break a rule of :func:`_parse_lines`,
    which then names the offending line; a valid ASCII body never needs it.
    """
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    pieces = []
    start = 0
    while True:  # whole lines of about _PIECE_BYTES each
        end = raw.find(b"\n", start + _PIECE_BYTES) + 1 or len(raw)
        pieces.append(_piece_columns(raw[start:end]))
        if pieces[-1] is None:
            return None
        if end == len(raw):
            break
        start = end
    counts, src, dst, weight, timestamp = (np.concatenate(c) for c in zip(*pieces))
    del pieces
    m = len(counts)
    if header.declared_m is not None and header.declared_m != m:
        return None
    has_t = counts == 4
    if np.any(has_t) and not np.all(has_t):
        return None  # timestamps on some lines only
    if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(timestamp))):
        return None
    given = counts > 2
    temporal = bool(np.any(has_t))
    if not _weights_pass(header.weights, weight, given, temporal, "#zeroweight" in tags):
        return None
    try:  # Graph's own checks: ids, loops, node count
        graph = _graph(header, tags, src, dst, weight if np.any(given) else None,
                       timestamp if temporal else None)
    except GraphError:
        return None
    # identical pairs get identical keys; a wrapped key may only add a
    # false duplicate, which the line loop then clears
    if not header.weights.allows_multi and len(graph.pairs.keys) < m:
        return None
    return graph


def _piece_columns(piece: bytes):
    """Fields per data line and the columns of whole lines, or None if a byte
    or token needs the line loop; absent weights read 1 and timestamps 0."""
    byte = np.frombuffer(piece, dtype=np.uint8)
    kind = _BYTE_CLASS[byte]
    if np.any(kind == 2):
        return None
    in_token = kind == 0
    starts = np.flatnonzero(np.diff(in_token, prepend=False) & in_token)
    counts = np.bincount(np.searchsorted(np.flatnonzero(byte == 10), starts))
    counts = counts[counts > 0]  # blank lines dropped
    if len(counts) and (counts.min() < 2 or counts.max() > 4):
        return None
    tokens = np.array(piece.split(), dtype=bytes)
    first = np.cumsum(counts) - counts
    weight = np.ones(len(counts))
    timestamp = np.zeros(len(counts))
    try:
        src = tokens[first].astype(np.int64)
        dst = tokens[first + 1].astype(np.int64)
        for column, j in ((weight, 2), (timestamp, 3)):
            column[counts > j] = tokens[first[counts > j] + j].astype(np.float64)
    except (ValueError, OverflowError):
        return None
    return counts, src, dst, weight, timestamp


def _weights_pass(weights, w, given, temporal, zero_ok) -> bool:
    """Whether every record passes :func:`_check_weight`; ``w`` is 1 where not ``given``."""
    if weights is WeightType.DYNAMIC:
        return bool(np.all(given) and np.all(np.abs(w) == 1))
    if weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        top = 1 if temporal or weights is WeightType.UNWEIGHTED else np.inf
        return bool(np.all((w == np.trunc(w)) & (w >= 1) & (w <= top)))
    if not np.all(given):
        return False
    if weights in (WeightType.POSWEIGHTED, WeightType.MULTIPOSWEIGHTED):
        return bool(np.all(w >= 0 if zero_ok else w > 0))
    if weights in (WeightType.SIGNED, WeightType.MULTISIGNED):
        return zero_ok or bool(np.all(w != 0))
    return True  # rating scales allow any real value


def _parse_lines(body: str, first_line: int, header: Header, tags: frozenset[str]):
    """The record columns of ``body``, checked line by line.

    This is the statement of the record rules and their messages; it raises
    on the first offending line.  ``first_line`` is the body's line number.
    """
    fmt, weights = header.fmt, header.weights
    loops_ok = "#loop" in tags and fmt is not Format.BIPARTITE
    zero_ok = "#zeroweight" in tags

    src, dst, wcol, tcol = [], [], [], []
    have_w = have_t = False
    missing_ts_line: int | None = None
    seen_pairs: set[tuple[int, int]] = set()
    single_edge = not weights.allows_multi
    hi_u = hi_v = 0

    for lineno0, raw in enumerate(body.split("\n"), start=first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            raise DatasetError("comment lines are only allowed before the data", lineno0)
        fields = line.split()
        if not 2 <= len(fields) <= 4:
            raise DatasetError(f"expected 2-4 fields, found {len(fields)}", lineno0)
        u = _parse_int(fields[0], "source id", lineno0)
        v = _parse_int(fields[1], "target id", lineno0)
        if u < 1 or v < 1:
            raise DatasetError("node ids must be >= 1", lineno0)
        if header.declared_n1 is not None and u > header.declared_n1:
            raise DatasetError(
                f"source id {u} beyond declared count {header.declared_n1}", lineno0
            )
        limit2 = header.declared_n2 if fmt is Format.BIPARTITE else header.declared_n1
        if limit2 is not None and v > limit2:
            raise DatasetError(f"target id {v} beyond declared count {limit2}", lineno0)
        if u == v and fmt is not Format.BIPARTITE and not loops_ok:
            raise DatasetError("loop without the #loop tag", lineno0)
        hi_u, hi_v = max(hi_u, u), max(hi_v, v)
        if _node_count(header, hi_u, hi_v) > MAX_NODES:
            raise DatasetError(
                f"node id {max(u, v)} makes more than {MAX_NODES} nodes", lineno0
            )

        w = t = None
        if len(fields) >= 3:
            w = _parse_float(fields[2], "weight", lineno0)
        if len(fields) == 4:
            t = _parse_float(fields[3], "timestamp", lineno0)
        _check_weight(weights, w, t is not None, zero_ok, lineno0)

        if single_edge:
            if fmt is Format.UNDIRECTED:
                pair = (min(u, v), max(u, v))
            else:
                pair = (u, v)
            if pair in seen_pairs:
                raise DatasetError(
                    f"duplicate edge {pair} in a single-edge weight type", lineno0
                )
            seen_pairs.add(pair)

        src.append(u)
        dst.append(v)
        wcol.append(w if w is not None else 1.0)  # absent weight column means 1
        tcol.append(t if t is not None else 0.0)
        have_w = have_w or w is not None
        have_t = have_t or t is not None
        if t is None and missing_ts_line is None:
            missing_ts_line = lineno0

    if have_t and missing_ts_line is not None:
        raise DatasetError(
            "timestamps must be present on every line or none", missing_ts_line
        )
    if header.declared_m is not None and header.declared_m != len(src):
        raise DatasetError(
            f"declared edge count {header.declared_m} but found {len(src)} data lines"
        )

    return (
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(wcol) if have_w else None,
        np.array(tcol) if have_t else None,
    )


def _sizes(header: Header, hi_src: int, hi_dst: int) -> tuple[int, int | None]:
    """``(n1, n2)`` for these largest ids; declared counts win over them."""
    n1, n2 = header.declared_n1, header.declared_n2
    if header.fmt is Format.BIPARTITE:
        return (hi_src if n1 is None else n1), (hi_dst if n2 is None else n2)
    return (max(hi_src, hi_dst) if n1 is None else n1), None


def _node_count(header: Header, hi_src: int, hi_dst: int) -> int:
    n1, n2 = _sizes(header, hi_src, hi_dst)
    return n1 + (n2 or 0)


def _graph(header: Header, tags, src, dst, weight, timestamp) -> Graph:
    """The graph of parsed columns."""
    n1, n2 = _sizes(header, int(src.max()) if len(src) else 0,
                    int(dst.max()) if len(dst) else 0)
    return Graph(
        fmt=header.fmt,
        weights=header.weights,
        n1=n1,
        n2=n2,
        src=src,
        dst=dst,
        weight=weight,
        timestamp=timestamp,
        tags=tags,
    )


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

    declared_m = declared_n1 = declared_n2 = None
    extra: list[str] = []
    idx = 1
    if len(lines) > 1 and lines[1].lstrip().startswith("%"):
        counts = lines[1].lstrip()[1:].split()
        if counts and all(_is_int(c) for c in counts):
            vals = [int(c) for c in counts[:3]]
            if any(v < 0 for v in vals):
                raise DatasetError("declared counts must be nonnegative", 2)
            declared_m = vals[0]
            if len(vals) > 1:
                declared_n1 = vals[1]
            if len(vals) > 2:
                declared_n2 = vals[2]
            idx = 2
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        extra.append(lines[idx])
        idx += 1
    header = Header(
        fmt=fmt,
        weights=weights,
        declared_m=declared_m,
        declared_n1=declared_n1,
        declared_n2=declared_n2,
        extra_comments=tuple(extra),
    )
    declared = _node_count(header, 0, 0)
    if declared > MAX_NODES:
        raise DatasetError(f"declared node count {declared} beyond the limit of {MAX_NODES}", 2)
    return header, idx


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _check_weight(weights, w, temporal, zero_ok, lineno):
    if weights is WeightType.DYNAMIC:
        if w is None or w not in (1.0, -1.0):
            raise DatasetError("dynamic networks need +1/-1 in the third column", lineno)
        return
    if weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        if w is None:
            return
        if w != int(w) or w < 1:
            raise DatasetError(
                f"multiplicity {w!r} must be a positive integer", lineno
            )
        if w > 1 and temporal:
            raise DatasetError("aggregated multiplicity not allowed with timestamps", lineno)
        if w > 1 and weights is WeightType.UNWEIGHTED:
            raise DatasetError("multiple edges not allowed in an unweighted network", lineno)
        return
    if w is None:
        raise DatasetError("this weight type requires a weight column", lineno)
    if weights in (WeightType.POSWEIGHTED, WeightType.MULTIPOSWEIGHTED):
        if w < 0 or (w == 0 and not zero_ok):
            raise DatasetError(
                f"weight {w!r} out of range for positive weights", lineno
            )
    elif weights in (WeightType.SIGNED, WeightType.MULTISIGNED):
        if w == 0 and not zero_ok:
            raise DatasetError("zero weight without the #zeroweight tag", lineno)
    # rating scales allow any real value


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
        a, b = g.pairs.endpoints()
        reciprocal = int(np.count_nonzero(g.pairs.reciprocated() & (a != b))) // 2
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
        unique_m = g.pattern.nnz // 2
        if unique_m == g.n - len(sizes):
            warn("network is a forest (no cycles)")
        if g.fmt is Format.BIPARTITE:
            deg = g.degrees
            if g.n1 and g.n2 and (np.all(deg[: g.n1] <= 1) or np.all(deg[g.n1:] <= 1)):
                warn("bipartite star pattern: one side has only degree-one nodes")
    return findings
