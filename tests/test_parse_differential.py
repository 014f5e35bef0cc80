"""The array parser and column writer against the line loop and per-row writer."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netstats import io
from netstats.graph import Format, Graph, WeightType
from netstats.io import DatasetError, Header, parse_out, write_out

from gen import ALL_COMBOS, random_graph

TOKENS = ["0", "-1", "1.5", "9223372036854775808", "1_0", "+3", "nan", "inf",
          "١٢", "\x1c", "\r", "-0", "1e400", "0x10", "\x00", "%", "1", "2",
          "-1.0", "1e3", "007", ".5", "１", "99"]


def reference_parse(data, tags):
    """The former ``parse_out``: split every line, then run the line loop."""
    text = io._as_text(data)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header, first = io._parse_header(lines)
    columns = io._parse_lines("\n".join(lines[first:]), first + 1, header, tags)
    return io._graph(header, tags, *columns), header


def outcome(parse, data, tags):
    """Columns (bit for bit), sizes and header, or the error and its line."""
    try:
        g, header = parse(data, tags)
    except Exception as exc:  # both sides must fail the same way
        return type(exc).__name__, getattr(exc, "message", str(exc)), getattr(exc, "line", None)
    columns = [None if c is None else (c.dtype.str, c.tobytes())
               for c in (g.src, g.dst, g.weight, g.timestamp)]
    return g.fmt, g.weights, g.n1, g.n2, g.tags, columns, header


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def reference_write(g: Graph, header: Header) -> bytes:
    """The former per-row ``write_out`` body after the header lines."""
    rows = []
    w, t = g.weight, g.timestamp
    for i in range(len(g.src)):
        parts = [str(int(g.src[i])), str(int(g.dst[i]))]
        if w is not None:
            parts.append(_fmt_number(float(w[i])))
        if t is not None:
            parts.append(_fmt_number(float(t[i])))
        rows.append("\t".join(parts) + "\n")
    return "".join(rows).encode("utf-8")


def _mutate(lines: list[str], first: int, op: str, k: int, token: str) -> list[str]:
    """``lines`` after one edit ``op``; ``k`` picks the data line and field."""
    if op == "comment":
        return lines + ["% trailing"]
    if op == "blank":
        return lines[:first] + ["  \t"] + lines[first:]
    if len(lines) == first:
        return lines + [f"1\t{token}"]
    i = first + k % (len(lines) - first)
    fields = lines[i].split("\t")
    j = k % len(fields)
    if op == "drop-field":
        fields.pop(j)
    elif op == "double-field":
        fields.insert(j, fields[j])
    elif op == "replace":
        fields[j] = token
    elif op == "insert":
        fields.insert(j, token)
    elif op == "separator":
        return lines[:i] + [token.join(fields)] + lines[i + 1:]
    elif op == "loop":
        fields[1:2] = fields[:1]
    elif op == "duplicate-line":
        return lines[:i] + [lines[i]] + lines[i:]
    elif op == "drop-line":
        return lines[:i] + lines[i + 1:]
    elif op == "crlf":
        fields[-1] += "\r"
    return lines[:i] + ["\t".join(fields)] + lines[i + 1:]


OPS = ["drop-field", "double-field", "replace", "insert", "separator", "loop",
       "duplicate-line", "drop-line", "crlf", "comment", "blank"]


def _lines(g: Graph, counts_line: bool = True) -> list[str]:
    lines = write_out(g).decode().split("\n")[:-1]
    return lines if counts_line else lines[:1] + lines[2:]


def _blob(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("fmt, weights", ALL_COMBOS)
def test_each_single_edit_matches_line_loop(fmt, weights):
    rng = np.random.default_rng(31)
    for _ in range(2):
        g = random_graph(rng, fmt, weights, n_max=8, m_max=12)
        lines = _lines(g)
        for op in OPS:
            tokens = TOKENS if op in ("replace", "insert", "separator") else TOKENS[:1]
            for k, token in itertools.product(range(4), tokens):
                data = _blob(_mutate(lines, 2, op, k, token))
                for tags in (g.tags, g.tags ^ {"#loop", "#zeroweight"}):
                    assert (outcome(parse_out, data, tags)
                            == outcome(reference_parse, data, tags)), (op, k, token, tags)


@settings(max_examples=600, deadline=None)
@given(
    combo=st.sampled_from(ALL_COMBOS),
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 1000),
                             st.sampled_from(TOKENS)), max_size=3),
    tag_flips=st.sets(st.sampled_from(["#loop", "#zeroweight"])),
    counts_line=st.booleans(),
    piece=st.sampled_from([1, 16, 1 << 20]),
)
def test_edit_sequences_match_line_loop(combo, seed, edits, tag_flips, counts_line, piece):
    g = random_graph(np.random.default_rng(seed), *combo, n_max=8, m_max=12)
    lines = _lines(g, counts_line)
    for op, k, token in edits:
        lines = _mutate(lines, 2 if counts_line else 1, op, k, token)
    data = _blob(lines)
    tags = g.tags ^ tag_flips
    with mock.patch.object(io, "_PIECE_BYTES", piece):
        assert outcome(parse_out, data, tags) == outcome(reference_parse, data, tags)


def _loop_forbidden(*_args):
    raise AssertionError("a valid ASCII file entered the line loop")


@pytest.mark.parametrize("piece", [1 << 20, 16])
@pytest.mark.parametrize("fmt, weights", ALL_COMBOS)
def test_valid_ascii_files_never_enter_the_line_loop(fmt, weights, piece):
    rng = np.random.default_rng(29)
    graphs = [random_graph(rng, fmt, weights) for _ in range(4)]
    with (mock.patch.object(io, "_parse_lines", _loop_forbidden),
          mock.patch.object(io, "_PIECE_BYTES", piece)):
        for g in graphs:
            blob = write_out(g)
            lines = blob.split(b"\n")[:-1]
            rows = [b" " + row.replace(b"\t", b"  ") + b"\r\n" for row in lines[2:]]
            spaced = b"\n".join(lines[:2] + rows) + b"\n"  # blank line after each row
            for data in (blob, spaced):
                parsed, header = parse_out(data, tags=g.tags)
                assert parsed == g and header.declared_m == len(g.src)


def test_ragged_multiplicity_column_stays_on_the_array_path():
    data = b"% sym positive\n% 3 4 4\n1 2\n2 3 4\n\n3 4\n"
    with mock.patch.object(io, "_parse_lines", _loop_forbidden):
        g, _ = parse_out(data)
    assert g.weight.tolist() == [1.0, 4.0, 1.0] and g.m == 6
    assert outcome(parse_out, data, frozenset()) == outcome(reference_parse, data, frozenset())


def test_indented_header_lines():
    data = b"% sym unweighted\n  % 2 3 3\n \t% extracted\n1 2\n2 3\n"
    with mock.patch.object(io, "_parse_lines", _loop_forbidden):
        _, header = parse_out(data)
    assert header.extra_comments == (" \t% extracted",) and header.declared_m == 2
    assert outcome(parse_out, data, frozenset()) == outcome(reference_parse, data, frozenset())


@pytest.mark.parametrize("data, line, message", [
    (b"% sym unweighted\n1 2\n\xd9\xa1 3\n2 3\n2 3\n", 5,
     "duplicate edge (2, 3) in a single-edge weight type"),
    (b"% sym unweighted\n1 2\n3 4\n1\x1c2\n1 2\n", 4,
     "duplicate edge (1, 2) in a single-edge weight type"),
    (b"% asym posweighted\n1 2 1\n3 4\n", 3,
     "this weight type requires a weight column"),
    (b"% sym dynamic\n1 2 1\n2 3\n", 3,
     "dynamic networks need +1/-1 in the third column"),
    (b"% asym positive\n% 3\n1 2\n3 4 1\n", None,
     "declared edge count 3 but found 2 data lines"),
    (b"% sym positive\n1 2 1 5\n2 3 1\n", 3,
     "timestamps must be present on every line or none"),
    (b"% sym unweighted\n1 2\n2 3 1\n% late\n", 4,
     "comment lines are only allowed before the data"),
    (b"% sym unweighted\n1 2\x00\n", 2, "target id '2\\x00' is not an integer"),
    (b"% sym positive\n1 2 1 5\n2 3 1 1e400\n", 3, "timestamp '1e400' is not finite"),
])
def test_errors_name_the_first_offending_line(data, line, message):
    with pytest.raises(DatasetError) as exc:
        parse_out(data)
    assert (exc.value.line, exc.value.message) == (line, message)
    assert outcome(parse_out, data, frozenset()) == outcome(reference_parse, data, frozenset())


SPECIAL = [1e15, -0.0, 1e-300, float(2**53 + 1), -3.0, -2.5, 999999999999999.0,
           0.1, 1e16, 5e-324, -1e15, 123456.789, 1.0]


def _weighted(values, timestamps=None):
    k = len(values)
    return Graph(fmt=Format.DIRECTED, weights=WeightType.MULTIWEIGHTED, n1=k + 1,
                 n2=None, src=np.arange(1, k + 1), dst=np.arange(2, k + 2),
                 weight=np.array(values), timestamp=timestamps)


@pytest.mark.parametrize("block", [1 << 16, 4])
def test_write_out_matches_per_row_rule(block, monkeypatch):
    monkeypatch.setattr(io, "_BLOCK_ROWS", block)
    g = _weighted(SPECIAL, np.array(SPECIAL[::-1]))
    header = Header(Format.DIRECTED, WeightType.MULTIWEIGHTED)
    assert write_out(g, header) == b"% asym multiweighted\n" + reference_write(g, header)
    blob = write_out(g)
    assert blob.endswith(reference_write(g, header))
    g2, _ = parse_out(blob)
    assert g2 == g


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_write_out_matches_per_row_rule_on_any_finite_weights(values):
    g = _weighted(values)
    header = Header(Format.DIRECTED, WeightType.MULTIWEIGHTED)
    assert write_out(g, header) == b"% asym multiweighted\n" + reference_write(g, header)
