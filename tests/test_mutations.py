"""Seeded byte-level mutations of valid edge files, parsed against the line loop.

Every mutated file must parse to the line loop's graph or fail with its
``DatasetError`` on the same line.  A fixed sample also runs through the
command line in a child process whose address space is capped, where no
run may end in a traceback.
"""

import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netstats import io
from netstats.io import DatasetError, parse_out, write_out

import line_oracle
from gen import ALL_COMBOS, random_graph
from line_oracle import reference_parse
from test_parse_differential import outcome

MUTATIONS_PER_PAIR = 24
AS_LIMIT = 2 * 10**9  # bytes of address space for each command-line child
SRC = str(Path(__file__).resolve().parents[1] / "src")

# bytes a flip or an insertion puts in: the ones no data line may hold, a few
# non-ASCII characters, and ASCII that breaks a token or a line
ODD = [b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\xd9\xa1", "１".encode(),
       b"\xc2\xa0", b"\xff", b"\x80", b"%", b"-", b".", b"e", b"_", b"+", b"x",
       b" ", b"\t", b"\r", b"\n", b"0", b"9"]
HUGE = [b"3000000000", b"16777300", b"9223372036854775807", b"9223372036854775808",
        b"-9223372036854775808", b"99999999999999999999", b"1e400", b"0"]


def _split_rows(blob: bytes) -> tuple[list[bytes], list[list[bytes]]]:
    lines = blob.split(b"\n")
    head = [line for line in lines if line.startswith(b"%")]
    return head, [line.split(b"\t") for line in lines[len(head):] if line]


def _join(head: list[bytes], rows: list[list[bytes]]) -> bytes:
    return b"\n".join(head + [b"\t".join(row) for row in rows]) + b"\n"


def mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    """``blob`` after one seeded edit of its bytes, columns, ids or counts."""
    op = rng.integers(7)
    body = blob.find(b"\n") + 1  # most edits spare the format line
    pos = int(rng.integers(0 if rng.random() < 0.1 else body, len(blob) + 1))
    if op == 0:
        return blob[:pos]
    if op == 1:
        return blob[:pos] + ODD[rng.integers(len(ODD))] + blob[pos + 1:]
    if op == 2:
        return blob[:pos] + ODD[rng.integers(len(ODD))] + blob[pos:]
    head, rows = _split_rows(blob)
    if op == 6 or not rows:  # huge declared counts
        counts = [HUGE[rng.integers(len(HUGE))] if rng.random() < 0.5 else b"%d" % len(rows)
                  for _ in range(3)]
        return _join(head[:1] + [b"% " + b" ".join(counts)] + head[2:], rows)
    row = rows[rng.integers(len(rows))]
    j = int(rng.integers(len(row)))
    if op == 3:
        del row[j]
    elif op == 4:
        row.insert(j + 1, [b"1", b"2.5", b"-1", b"1000000000"][rng.integers(4)])
    else:  # a huge id, which no declared count bounds
        row[min(j, 1)] = HUGE[rng.integers(len(HUGE))]
        head = head[:1]
    return _join(head, rows)


def _cases():
    """``(name, blob, tags)`` per mutation, seeded per format/weight pair."""
    for k, (fmt, weights) in enumerate(ALL_COMBOS):
        rng = np.random.default_rng(900 + k)
        for i in range(MUTATIONS_PER_PAIR):
            g = random_graph(rng, fmt, weights, n_max=6, m_max=8)
            blob = write_out(g)
            if rng.random() < 0.5:  # without the count line
                head, rows = _split_rows(blob)
                blob = _join(head[:1], rows)
            for _ in range(int(rng.integers(1, 3))):
                blob = mutate(blob, rng)
            yield f"{fmt.value}-{weights.value}-{i}", blob, g.tags


CASES = list(_cases())


@pytest.mark.parametrize("fmt, weights", ALL_COMBOS)
def test_mutations_match_the_line_loop(fmt, weights):
    prefix = f"{fmt.value}-{weights.value}-"
    cases = [case for case in CASES if case[0].startswith(prefix)]
    assert len(cases) >= 20
    for name, blob, tags in cases:
        got = outcome(parse_out, blob, tags)
        assert got == outcome(reference_parse, blob, tags), (name, blob)
        assert got[0] != "DatasetError" or got[2] is not None or "declared edge count" in got[1]
        assert got[0] in ("DatasetError", fmt), (name, got)  # no other exception


def test_oracle_node_slack_is_the_parsers():
    assert line_oracle.NODE_SLACK == io.NODE_SLACK


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def validate_capped(tmp_path: Path, name: str, blob: bytes) -> subprocess.CompletedProcess:
    """``netstats validate`` on ``blob`` in a child process with capped address space."""
    (tmp_path / f"out.{name}").write_bytes(blob)
    return subprocess.run(
        [sys.executable, "-m", "netstats.cli", "validate", str(tmp_path / f"out.{name}")],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})


def _beyond_node_budget(case) -> bool:
    try:
        reference_parse(case[1], case[2])
    except DatasetError as exc:
        return "nodes" in exc.message
    return False


# a fixed sample: the first ten files beyond the node budget, and every 54th
SAMPLE = [case for case in CASES if _beyond_node_budget(case)][:10] + CASES[::54][:10]


def test_command_line_sample_ends_without_a_traceback(tmp_path):
    assert len(SAMPLE) == 20
    for name, blob, _ in SAMPLE:
        run = validate_capped(tmp_path, "m", blob)
        assert "Traceback" not in run.stdout + run.stderr, (name, blob, run.stderr)
        assert run.returncode in (0, 1), (name, run.stderr)


@pytest.mark.parametrize("blob", [
    b"% sym unweighted\n1 3000000000\n",
    b"% sym unweighted\n% 1 3000000000\n1 2\n",
], ids=["id", "declared"])
def test_node_budget_ends_with_an_error_row(tmp_path, blob):
    run = validate_capped(tmp_path, "big", blob)
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stdout.startswith("error\t2\tbig: "), run.stdout
    with pytest.raises(DatasetError) as exc:
        parse_out(blob)
    assert exc.value.line == 2
