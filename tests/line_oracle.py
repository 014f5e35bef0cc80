"""The record rules of an ``out.*`` body, checked line by line.

This is the reference that ``netstats.io.parse_out`` is compared against: a
plain loop over the lines that raises on the first offending one, with the
rules over the whole file (timestamps on every line or none, the declared
edge count) last.  Tokens are split on ASCII whitespace.  A token is read
with Python's ``int`` or ``float``, which on ASCII accept what numpy's
``astype`` accepts; a token holding NUL, a byte 0x1c-0x1f or a non-ASCII
byte is unreadable.
"""

import math

import numpy as np

from netstats import io
from netstats.graph import MAX_NODES, Format, Graph, WeightType
from netstats.io import DatasetError

BAD_BYTES = frozenset([0, 0x1C, 0x1D, 0x1E, 0x1F, *range(0x80, 0x100)])
INT64 = range(-(2**63), 2**63)
NODE_SLACK = 1 << 24  # nodes beyond two per record


def sizes(header, hi_u: int, hi_v: int) -> tuple[int, int | None]:
    """``(n1, n2)`` for these largest ids; declared counts win over them."""
    n1, n2 = header.declared_n1, header.declared_n2
    if header.fmt is Format.BIPARTITE:
        return (hi_u if n1 is None else n1), (hi_v if n2 is None else n2)
    return (max(hi_u, hi_v) if n1 is None else n1), None


def node_count(header, hi_u: int, hi_v: int) -> int:
    n1, n2 = sizes(header, hi_u, hi_v)
    return n1 + (n2 or 0)


def reference_parse(data, tags):
    """``parse_out`` as the header parser followed by the line loop."""
    text = io._as_text(data)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header, first = io._parse_header(lines)
    src, dst, weight, timestamp = parse_lines(
        [line.encode() for line in lines[first:]], first + 1, header, tags)
    n1, n2 = sizes(header, max(src, default=0), max(dst, default=0))
    return Graph(fmt=header.fmt, weights=header.weights, n1=n1, n2=n2,
                 src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64),
                 weight=weight, timestamp=timestamp, tags=tags), header


def _parse_int(token: bytes, what: str, line: int) -> int:
    try:
        if BAD_BYTES.intersection(token):
            raise ValueError
        value = int(token)
    except ValueError:
        raise DatasetError(f"{what} {token.decode()!r} is not an integer", line) from None
    if value not in INT64:
        raise DatasetError(f"{what} {token.decode()!r} does not fit in 64 bits", line)
    return value


def _parse_float(token: bytes, what: str, line: int) -> float:
    try:
        if BAD_BYTES.intersection(token):
            raise ValueError
        value = float(token)
    except ValueError:
        raise DatasetError(f"{what} {token.decode()!r} is not numeric", line) from None
    if not math.isfinite(value):
        raise DatasetError(f"{what} {token.decode()!r} is not finite", line)
    return value


def parse_lines(lines: list[bytes], first_line: int, header, tags):
    """The record columns of the body ``lines``, whose first is ``first_line``."""
    fmt, weights = header.fmt, header.weights
    loops_ok = "#loop" in tags and fmt is not Format.BIPARTITE
    zero_ok = "#zeroweight" in tags
    m = sum(1 for line in lines if line.strip())
    budget = min(MAX_NODES, 2 * m + NODE_SLACK)
    declared = node_count(header, 0, 0)
    if declared > budget:
        raise DatasetError(f"declared node count {declared} beyond the budget of "
                           f"{budget} nodes for {m} records", 2)

    src, dst, wcol, tcol = [], [], [], []
    have_w = have_t = False
    missing_ts_line = None
    seen_pairs = set()
    hi_u = hi_v = 0

    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(b"%"):
            raise DatasetError("comment lines are only allowed before the data", lineno)
        fields = line.split()
        if not 2 <= len(fields) <= 4:
            raise DatasetError(f"expected 2-4 fields, found {len(fields)}", lineno)
        u = _parse_int(fields[0], "source id", lineno)
        v = _parse_int(fields[1], "target id", lineno)
        if u < 1 or v < 1:
            raise DatasetError("node ids must be >= 1", lineno)
        if header.declared_n1 is not None and u > header.declared_n1:
            raise DatasetError(
                f"source id {u} beyond declared count {header.declared_n1}", lineno)
        limit2 = header.declared_n2 if fmt is Format.BIPARTITE else header.declared_n1
        if limit2 is not None and v > limit2:
            raise DatasetError(f"target id {v} beyond declared count {limit2}", lineno)
        if u == v and fmt is not Format.BIPARTITE and not loops_ok:
            raise DatasetError("loop without the #loop tag", lineno)
        hi_u, hi_v = max(hi_u, u), max(hi_v, v)
        if node_count(header, hi_u, hi_v) > budget:
            raise DatasetError(f"node id {max(u, v)} makes more than {budget} nodes, "
                               f"the budget for {m} records", lineno)

        w = t = None
        if len(fields) >= 3:
            w = _parse_float(fields[2], "weight", lineno)
        if len(fields) == 4:
            t = _parse_float(fields[3], "timestamp", lineno)
        check_weight(weights, w, t is not None, zero_ok, lineno)

        if not weights.allows_multi:
            pair = (min(u, v), max(u, v)) if fmt is Format.UNDIRECTED else (u, v)
            if pair in seen_pairs:
                raise DatasetError(f"duplicate edge {pair} in a single-edge weight type",
                                   lineno)
            seen_pairs.add(pair)

        src.append(u)
        dst.append(v)
        wcol.append(w if w is not None else 1.0)  # absent weight column means 1
        tcol.append(t if t is not None else 0.0)
        have_w = have_w or w is not None
        have_t = have_t or t is not None
        if t is None and missing_ts_line is None:
            missing_ts_line = lineno

    if have_t and missing_ts_line is not None:
        raise DatasetError("timestamps must be present on every line or none", missing_ts_line)
    if header.declared_m is not None and header.declared_m != len(src):
        raise DatasetError(
            f"declared edge count {header.declared_m} but found {len(src)} data lines")
    return src, dst, np.array(wcol) if have_w else None, np.array(tcol) if have_t else None


def check_weight(weights, w, temporal, zero_ok, lineno):
    if weights is WeightType.DYNAMIC:
        if w is None or w not in (1.0, -1.0):
            raise DatasetError("dynamic networks need +1/-1 in the third column", lineno)
        return
    if weights in (WeightType.UNWEIGHTED, WeightType.POSITIVE):
        if w is None:
            return
        if w != int(w) or w < 1:
            raise DatasetError(f"multiplicity {w!r} must be a positive integer", lineno)
        if w > 1 and temporal:
            raise DatasetError("aggregated multiplicity not allowed with timestamps", lineno)
        if w > 1 and weights is WeightType.UNWEIGHTED:
            raise DatasetError("multiple edges not allowed in an unweighted network", lineno)
        return
    if w is None:
        raise DatasetError("this weight type requires a weight column", lineno)
    if weights in (WeightType.POSWEIGHTED, WeightType.MULTIPOSWEIGHTED):
        if w < 0 or (w == 0 and not zero_ok):
            raise DatasetError(f"weight {w!r} out of range for positive weights", lineno)
    elif weights in (WeightType.SIGNED, WeightType.MULTISIGNED):
        if w == 0 and not zero_ok:
            raise DatasetError("zero weight without the #zeroweight tag", lineno)
    # rating scales allow any real value
