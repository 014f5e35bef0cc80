import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netstats
from netstats import cli, spectral, stats
from netstats.cli import main
from netstats.graph import Format, Graph, WeightType
from netstats.io import write_out

from gen import ALL_COMBOS, random_graph, random_simple_undirected


K3 = b"% sym unweighted\n1\t2\n2\t3\n1\t3\n"
META = b"name: Tri\ncode: TR\ncategory: Misc\n"


@pytest.fixture
def dataset(tmp_path):
    (tmp_path / "out.tri").write_bytes(K3)
    (tmp_path / "meta.tri").write_bytes(META)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(dataset, capsys):
    code, out, _ = run(capsys, "validate", str(dataset / "out.tri"))
    assert code == 0


def test_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "out.bad"
    bad.write_bytes(b"% sym unweighted\n1 x\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "\t2\t" in out  # line number column


def test_validate_missing_meta_is_warning(tmp_path, capsys):
    (tmp_path / "out.solo").write_bytes(K3)
    code, out, _ = run(capsys, "validate", str(tmp_path / "out.solo"))
    assert code == 0
    assert "no meta file" in out


def test_validate_unreadable(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "out.nope"))
    assert code == 2


def test_stats_to_stdout(dataset, capsys):
    code, out, _ = run(capsys, "stats", str(dataset / "out.tri"), "size", "volume")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name\t")
    assert lines[1] == "size\t3\tfull graph\texact\t-"
    assert lines[2].startswith("volume\t3")


def test_stats_all_includes_na_rows(dataset, capsys):
    code, out, _ = run(capsys, "stats", str(dataset / "out.tri"), "--all")
    assert code == 0
    assert "clusco\t1\t" in out
    assert "reciprocity\tNA" in out


def test_stats_unknown_name(dataset, capsys):
    code, _, err = run(capsys, "stats", str(dataset / "out.tri"), "nonsense")
    assert code == 1
    assert "valid names" in err


def test_stats_outdir(dataset, tmp_path, capsys):
    out = tmp_path / "results"
    code, _, _ = run(capsys, "stats", str(dataset / "out.tri"), "--all",
                     "--out", str(out))
    assert code == 0
    assert (out / "tri" / "statistics.tsv").exists()


def test_plot_writes_files(dataset, tmp_path, capsys):
    out = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", str(dataset / "out.tri"), "degree",
                     "--out", str(out))
    assert code == 0
    assert (out / "tri" / "plot.degree-distribution.tri.tsv").exists()
    assert (out / "tri" / "plot.degree-distribution.tri.svg").exists()
    assert (out / "tri" / "plot.cumulative-degree-distribution.tri.tsv").exists()


def test_plot_all_skips_inapplicable(dataset, tmp_path, capsys):
    out = tmp_path / "plots"
    code, stdout, _ = run(capsys, "plot", str(dataset / "out.tri"), "--all",
                          "--out", str(out))
    assert code == 0
    assert "skipped\ttri\tcomplex-eigenvalues" in stdout
    assert "skipped\ttri\ttemporal" in stdout
    assert (out / "tri" / "plot.spectrum-topk-adjacency.tri.tsv").exists()
    assert (out / "tri" / "spectra.adjacency.tri.tsv").exists()
    assert (out / "tri" / "plot.drawing-L.tri.tsv").exists()


def test_plot_specific_inapplicable_fails(dataset, tmp_path, capsys):
    code, stdout, _ = run(capsys, "plot", str(dataset / "out.tri"),
                          "complex-eigenvalues", "--out", str(tmp_path / "x"))
    assert code == 1


def test_plot_requires_outdir(dataset, capsys, monkeypatch):
    monkeypatch.delenv("NETSTAT_OUT", raising=False)
    code, _, err = run(capsys, "plot", str(dataset / "out.tri"), "degree")
    assert code == 1


def test_netstat_out_env(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NETSTAT_OUT", str(tmp_path / "envout"))
    code, _, _ = run(capsys, "plot", str(dataset / "out.tri"), "lorenz")
    assert code == 0
    assert (tmp_path / "envout" / "tri" / "plot.lorenz.tri.tsv").exists()


def test_transform_lcc(tmp_path, capsys):
    (tmp_path / "out.two").write_bytes(b"% sym unweighted\n1 2\n2 3\n4 5\n")
    code, stdout, _ = run(capsys, "transform", "lcc", str(tmp_path / "out.two"),
                          "--out", str(tmp_path))
    assert code == 0
    produced = Path(stdout.strip())
    assert produced.exists()
    from netstats.io import parse_out

    g, _ = parse_out(produced.read_bytes())
    assert g.n == 3 and g.m == 2


def test_transform_simple_removes_duplicates(tmp_path, capsys):
    (tmp_path / "out.multi").write_bytes(b"% sym positive\n1 2 3\n2 3 1\n")
    code, stdout, _ = run(capsys, "transform", "simple", str(tmp_path / "out.multi"),
                          "--out", str(tmp_path))
    assert code == 0
    from netstats.io import parse_out

    g, _ = parse_out(Path(stdout.strip()).read_bytes())
    assert g.m == 2


def test_transforms_compose_via_files(tmp_path, capsys):
    (tmp_path / "out.src").write_bytes(
        b"% sym signed\n1 2 -1\n2 3 2\n1 3 1\n4 5 -2\n"
    )
    code, out1, _ = run(capsys, "transform", "lcc", str(tmp_path / "out.src"),
                        "--out", str(tmp_path))
    assert code == 0
    first = Path(out1.strip())
    code, out2, _ = run(capsys, "transform", "unweighted", str(first),
                        "--out", str(tmp_path))
    assert code == 0
    from netstats.io import parse_out

    g, _ = parse_out(Path(out2.strip()).read_bytes())
    assert g.weights.value == "unweighted"
    assert g.n == 3


def test_directory_dataset_processed(tmp_path, capsys):
    (tmp_path / "out.a").write_bytes(K3)
    (tmp_path / "out.b").write_bytes(b"% sym unweighted\n1 2\n")
    out = tmp_path / "res"
    code, _, _ = run(capsys, "stats", str(tmp_path), "--all", "--out", str(out))
    assert code == 0
    assert (out / "a" / "statistics.tsv").exists()
    assert (out / "b" / "statistics.tsv").exists()


def test_plot_directory_continues_past_edgeless_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "out.a").write_bytes(b"% sym unweighted\n% 0 31 31\n")
    (data / "out.b").write_bytes(K3)
    out = tmp_path / "plots"
    code, stdout, _ = run(capsys, "plot", str(data), "--all", "--out", str(out))
    assert code == 0
    assert "skipped\ta\tdegree\tcannot render an empty series" in stdout
    assert not (out / "a" / "plot.degree-distribution.a.tsv").exists()
    assert (out / "b" / "plot.degree-distribution.b.svg").exists()
    assert (out / "b" / "plot.assortativity-plot.b.svg").exists()
    code, stdout, _ = run(capsys, "plot", str(data), "degree", "--out", str(out))
    assert code == 1
    assert stdout == "error: a: degree: cannot render an empty series\n"


def test_parallel_jobs_match_serial(tmp_path, capsys):
    rng = np.random.default_rng(3)
    from netstats.io import write_out

    for i in range(3):
        g = random_simple_undirected(rng, 25, 0.2)
        (tmp_path / f"out.g{i}").write_bytes(write_out(g))
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["stats", str(tmp_path), "--all", "--out", str(serial),
                 "--jobs", "1"]) == 0
    assert main(["stats", str(tmp_path), "--all", "--out", str(parallel),
                 "--jobs", "3"]) == 0
    capsys.readouterr()
    for i in range(3):
        a = (serial / f"g{i}" / "statistics.tsv").read_bytes()
        b = (parallel / f"g{i}" / "statistics.tsv").read_bytes()
        assert a == b


def _write_dataset(folder, name, g):
    (folder / f"out.{name}").write_bytes(write_out(g))
    if g.tags:  # the tags that let loops and missing reciprocal pairs parse
        (folder / f"meta.{name}").write_text(f"tags: {' '.join(sorted(g.tags))}\n")
    return folder / f"out.{name}"


def _stats_tsv(capsys, path, out, jobs):
    code = main(["stats", str(path), "--all", "--out", str(out), "--jobs", jobs])
    capsys.readouterr()
    return code, (out / path.name[4:] / "statistics.tsv").read_bytes()


@pytest.mark.parametrize("fmt,weights", ALL_COMBOS)
def test_one_dataset_forked_statistics_match_serial(tmp_path, capsys, monkeypatch, fmt, weights):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)  # fork even on one core
    rng = np.random.default_rng([11, ALL_COMBOS.index((fmt, weights))])
    for i in range(4):
        path = _write_dataset(tmp_path, f"g{i}", random_graph(rng, fmt, weights))
        serial = _stats_tsv(capsys, path, tmp_path / "serial", "1")
        assert _stats_tsv(capsys, path, tmp_path / "forked", "2") == serial
        assert b"\tNA\t" in serial[1]


def _signed_digraph(rng, n, p):
    iu, ju = np.nonzero(rng.random((n, n)) < p)
    keep = iu != ju
    return Graph(fmt=Format.DIRECTED, weights=WeightType.SIGNED, n1=n, n2=None,
                 src=iu[keep] + 1, dst=ju[keep] + 1,
                 weight=rng.choice([-1.0, 1.0], size=int(keep.sum())),
                 tags=frozenset({"#acyclic"}))


@pytest.mark.parametrize("make", [
    lambda rng: random_simple_undirected(rng, 3 * spectral.DENSE_LIMIT // 2, 0.01),
    lambda rng: _signed_digraph(rng, 3 * spectral.DENSE_LIMIT // 2, 0.005),
], ids=["undirected", "signed-directed"])
def test_one_large_dataset_forked_statistics_match_serial(tmp_path, capsys, monkeypatch, make):
    # above DENSE_LIMIT, so the statistics run the iterative solvers
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    path = _write_dataset(tmp_path, "big", make(np.random.default_rng(12)))
    serial = _stats_tsv(capsys, path, tmp_path / "serial", "1")
    assert serial[0] == 0 and b"\tNA\t" in serial[1]
    assert _stats_tsv(capsys, path, tmp_path / "forked", "2") == serial


def test_forked_statistic_failure_reads_as_in_the_serial_run(tmp_path, capsys, monkeypatch):
    # ArpackNoConvergence pickles, but unpickling it fails: a worker that sent
    # the exception itself back would break the pool instead of giving a row
    from scipy.sparse.linalg import ArpackNoConvergence

    failure = ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))

    def fails(ws):
        raise failure

    monkeypatch.setitem(stats._REGISTRY, "nonbip", fails)  # forked workers inherit it
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    (tmp_path / "out.tri").write_bytes(K3)
    serial = _stats_tsv(capsys, tmp_path / "out.tri", tmp_path / "serial", "1")
    assert f"nonbip\tNA\t-\t-\treason={failure}\n".encode() in serial[1]
    assert _stats_tsv(capsys, tmp_path / "out.tri", tmp_path / "forked", "2") == serial


def test_workers_capped_at_usable_cores(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    assert cli._worker_count(5000, 5000) == 2
    assert cli._worker_count(5000, 1) == 1
    assert cli._worker_count(1, 5000) == 1
    monkeypatch.setattr(cli, "_usable_cores", lambda: 8)
    assert cli._worker_count(5000, 3) == 3
    assert cli._worker_count(4, 41) == 4


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("one_file", [False, True], ids=["directory", "one-file"])
def test_outputs_do_not_depend_on_jobs_or_blas_threads(tmp_path, one_file):
    # dense eigensolves of 300 nodes differ in their last digits between one
    # and two OpenBLAS threads, unless the package pins the count; a single
    # out.* file has its statistics, not its datasets, shared out
    rng = np.random.default_rng(9)
    data = tmp_path / "data"
    data.mkdir()
    for i in range(2):
        (data / f"out.g{i}").write_bytes(write_out(random_simple_undirected(rng, 300, 0.05)))
    src = str(Path(netstats.__file__).parents[1])
    runs = {}
    for jobs, blas_threads in (("1", "1"), ("2", None), ("2", "2")):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        out = tmp_path / f"jobs{jobs}-blas{blas_threads}"
        for command in ("stats", "plot"):
            subprocess.run([sys.executable, "-m", "netstats.cli", command,
                            str(data / "out.g1" if one_file else data), "--all",
                            "--jobs", jobs, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
        runs[out.name] = _files(out)
    first, *others = runs.values()
    assert Path("g1/statistics.tsv") in first
    assert Path("g1/spectra.laplacian.g1.tsv") in first
    assert (Path("g0/statistics.tsv") in first) != one_file
    for other in others:
        assert other.keys() == first.keys()
        assert [name for name in first if first[name] != other[name]] == []


def test_usage_error_exit_code(capsys):
    assert main(["stats"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("option, value", [
    pytest.param("--jobs", "0", id="0"),
    pytest.param("--jobs", "-3", id="-3"),
    pytest.param("--k", "0", id="k-0"),
    pytest.param("--k", "-3", id="k--3"),
    pytest.param("--sample-sources", "0", id="sample-sources-0"),
    pytest.param("--sample-sources", "-2", id="sample-sources--2"),
])
@pytest.mark.parametrize("command", ["stats", "plot"])
def test_jobs_below_one_is_a_usage_error(dataset, tmp_path, capsys, command, option, value):
    out = tmp_path / "res"
    code, stdout, err = run(capsys, command, str(dataset), "--all", option, value,
                            "--out", str(out))
    assert (code, stdout) == (1, "")
    assert f"{option}: must be at least 1, got {value}" in err
    assert not out.exists()


def test_transform_lcc_of_event_log(tmp_path, capsys):
    from netstats.io import parse_out

    # the removed edge 3-4 joined the latest state's components {1, 2, 3} and {4, 5}
    (tmp_path / "out.log").write_bytes(b"% sym dynamic\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n3 4 -1\n")
    code, stdout, err = run(capsys, "transform", "lcc", str(tmp_path / "out.log"),
                            "--out", str(tmp_path))
    assert code == 0, err
    g, _ = parse_out(Path(stdout.strip()).read_bytes())
    assert g.n == 3 and list(zip(g.src.tolist(), g.dst.tolist())) == [(1, 2), (2, 3)]


def test_spectra_file_reads_as_numbers(dataset, tmp_path, capsys):
    out = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", str(dataset / "out.tri"), "spectrum",
                     "--out", str(out))
    assert code == 0
    for matrix in ("adjacency", "normalized", "laplacian"):
        table = np.loadtxt(out / "tri" / f"spectra.{matrix}.tri.tsv", ndmin=2)
        assert table.shape[1] == 4 and np.all(np.isfinite(table))


@pytest.mark.parametrize("out_bytes, meta_bytes, line", [
    (b"% sym unweighted\n1 2\n2 \xff3\n", META, 3),
    (b"% sym unweighted\n1 2\n1 99999999999999999999\n", META, 3),
    (K3, b"name: Tri\ncode: TR\ncategory: Misc\xe9\n", 3),
], ids=["out-utf8", "out-int64", "meta-utf8"])
def test_validate_hostile_input_reports_line(tmp_path, capsys, out_bytes, meta_bytes, line):
    (tmp_path / "out.bad").write_bytes(out_bytes)
    (tmp_path / "meta.bad").write_bytes(meta_bytes)
    code, out, _ = run(capsys, "validate", str(tmp_path / "out.bad"))
    assert code == 1
    assert out.startswith(f"error\t{line}\tbad: ")


def plot_rows(path):
    """The data rows of a plot TSV, as lists of fields."""
    return [line.split("\t") for line in path.read_text().splitlines()[1:]]


def final_snapshot(rows):
    """(hop, fraction) rows of the last snapshot of a temporal-distance plot."""
    last = rows[-1][0]
    return [row[1:] for row in rows if row[0] == last], last


def test_last_snapshot_cut_is_the_last_timestamp(tmp_path, capsys):
    # lo + (hi - lo) * 5 / 5 is 102.19999999999999 here, which drops the last record
    (tmp_path / "out.frac").write_bytes(
        b"% sym unweighted\n1 2 1 50.4\n2 3 1 60\n3 4 1 102.2\n")
    out = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", str(tmp_path / "out.frac"), "distance",
                     "temporal-distance", "--out", str(out))
    assert code == 0
    distance = plot_rows(out / "frac" / "plot.distance-distribution.frac.tsv")
    snapshot, last = final_snapshot(
        plot_rows(out / "frac" / "plot.temporal-distance-distribution.frac.tsv"))
    assert last == "102.2"
    assert snapshot == distance
    assert len(distance) == 4  # hops 0-3 of the 4-node path


def test_final_snapshot_equals_distance_plot_with_one_bfs(tmp_path, capsys, monkeypatch):
    from netstats import stats
    from netstats.graph import Format, Graph, WeightType
    from netstats.io import write_out

    rng = np.random.default_rng(604)
    base = random_simple_undirected(rng, 60, 0.08)
    m = len(base.src)
    g = Graph(fmt=Format.UNDIRECTED, weights=WeightType.UNWEIGHTED, n1=60, n2=None,
              src=base.src, dst=base.dst, weight=np.ones(m),
              timestamp=np.sort(rng.integers(0, 10**6, m)).astype(np.float64))
    (tmp_path / "out.t").write_bytes(write_out(g))
    calls = []
    bfs = stats._bfs_counts
    monkeypatch.setattr(stats, "_bfs_counts", lambda *a: calls.append(1) or bfs(*a))
    out = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", str(tmp_path / "out.t"), "distance",
                     "temporal-distance", "--out", str(out))
    assert code == 0
    distance = plot_rows(out / "t" / "plot.distance-distribution.t.tsv")
    rows = plot_rows(out / "t" / "plot.temporal-distance-distribution.t.tsv")
    snapshot, last = final_snapshot(rows)
    assert float(last) == g.timestamp.max()
    assert snapshot == distance
    assert len({row[0] for row in rows}) == 5
    assert len(calls) == 5  # four earlier snapshots and one pass for both plots


def test_validate_node_count_beyond_pair_key_limit(tmp_path, capsys):
    # pair keys a * (n + 1) + b would wrap around in int64
    (tmp_path / "out.big").write_bytes(
        b"% asym positive\n% 2 4000000000 4000000000\n3999999999 2\n2 3999999999\n")
    (tmp_path / "meta.big").write_bytes(META)
    code, out, err = run(capsys, "validate", str(tmp_path / "out.big"))
    assert code == 1 and err == ""
    assert out.startswith("error\t2\tbig: declared node count 4000000000")


def test_stats_directory_continues_past_empty_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "out.a").write_bytes(b"% sym unweighted\n% 0 0 0\n")  # no nodes at all
    (data / "out.b").write_bytes(K3)
    out = tmp_path / "res"
    code, stdout, err = run(capsys, "stats", str(data), "--all", "--out", str(out))
    assert code == 1 and err == ""
    assert stdout == "error: a: statistics are undefined for the empty graph\n"
    assert not (out / "a").exists()
    assert (out / "b" / "statistics.tsv").exists()


# a directed 3-cycle with a chord: eigenvalues 1.32 and -0.66 +- 0.56i, which
# a symmetric solver reported as -1, 1 and 0 with residuals up to 0.5
CHORDED = b"% asym unweighted\n1 2\n2 3\n3 1\n1 3\n"


def test_directed_graphs_skip_symmetric_spectra(tmp_path, capsys):
    (tmp_path / "out.c").write_bytes(CHORDED)
    out = tmp_path / "plots"
    code, stdout, _ = run(capsys, "plot", str(tmp_path / "out.c"), "--all",
                          "--out", str(out))
    assert code == 0
    for kind in ("spectrum", "drawing"):
        assert f"skipped\tc\t{kind}\tthe adjacency matrix of a directed graph" in stdout
    assert not list(out.glob("c/spectra.*")) and not list(out.glob("c/plot.drawing-*"))
    for kind in ("spectrum", "drawing"):
        code, stdout, _ = run(capsys, "plot", str(tmp_path / "out.c"), kind,
                              "--out", str(out))
        assert code == 1 and stdout.startswith(f"error: c: {kind}: ")
    # the general solver still gives the true spectrum
    table = np.loadtxt(out / "c" / "plot.complex-eigenvalues.c.tsv")
    want = np.linalg.eigvals(np.array([[0, 1, 1], [0, 0, 1], [1, 0, 0]], dtype=float))
    assert np.allclose(np.sort_complex(table[:, 0] + 1j * table[:, 1]),
                       np.sort_complex(want), atol=1e-9)


# a 4-cycle with a chord plus a separate edge: the LCC is nodes 1-4
TWO_PARTS = b"% sym unweighted\n1 2\n2 3\n3 4\n4 1\n1 3\n5 6\n"
# an event log whose latest state is the 4-cycle 1-2-3-4
EVENTS = b"% sym dynamic\n1 2 1 1\n2 3 1 2\n1 3 1 3\n1 3 -1 4\n3 4 1 5\n4 1 1 6\n"


def _count_calls(monkeypatch, modules, name):
    """Count calls of the function ``name`` wherever ``modules`` look it up."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_plot_kinds_share_one_largest_component(tmp_path, capsys, monkeypatch):
    from netstats import plots, stats

    (tmp_path / "out.two").write_bytes(TWO_PARTS)
    calls = _count_calls(monkeypatch, [stats, plots], "largest_connected_component")
    out = tmp_path / "plots"
    code, stdout, _ = run(capsys, "plot", str(tmp_path / "out.two"), "spectrum",
                          "drawing", "distance", "--out", str(out), "--jobs", "1")
    assert code == 0 and stdout == ""
    assert len(calls) == 1
    for m in ("A", "N", "L"):
        rows = plot_rows(out / "two" / f"plot.drawing-{m}.two.tsv")
        assert sorted(int(row[0]) for row in rows) == [1, 2, 3, 4]
    assert (out / "two" / "plot.distance-distribution.two.tsv").exists()


def test_plot_kinds_share_one_latest_state(tmp_path, capsys, monkeypatch):
    from netstats import graph, plots, spectral, stats

    (tmp_path / "out.ev").write_bytes(EVENTS)
    calls = _count_calls(monkeypatch, [graph, plots, spectral, stats], "latest_state")
    out = tmp_path / "plots"
    code, stdout, _ = run(capsys, "plot", str(tmp_path / "out.ev"), "degree", "lorenz",
                          "assortativity", "--out", str(out), "--jobs", "1")
    assert code == 0 and stdout == ""
    assert len(calls) == 1
    rows = plot_rows(out / "ev" / "plot.degree-distribution.ev.tsv")
    assert rows == [["2", "4"]]  # the latest state is a 4-cycle


def test_plot_directory_continues_past_empty_dataset(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "out.a").write_bytes(b"% sym unweighted\n% 0 0 0\n")  # no nodes at all
    (data / "out.b").write_bytes(K3)
    out = tmp_path / "plots"
    for kinds in (["--all"], ["degree", "distance"]):
        code, stdout, err = run(capsys, "plot", str(data), *kinds, "--out", str(out))
        assert code == 1 and err == ""
        about_a = [line for line in stdout.splitlines() if ": a:" in line or "\ta\t" in line]
        assert about_a == ["error: a: statistics are undefined for the empty graph"]
        assert not (out / "a").exists()
        assert (out / "b" / "plot.degree-distribution.b.tsv").exists()
        assert (out / "b" / "plot.distance-distribution.b.svg").exists()
