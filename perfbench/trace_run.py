"""The traced run: the CLI's steps in process, each public call timed from outside.

Wrappers are installed around the program's functions where the CLI,
``stats`` and ``plots`` look them up, and removed at the end.  A span's
time counts once for its name even when the call nests in itself; time
outside every top-level span is ``trace.unaccounted_s``.  The run calls
the CLI's own per-dataset functions (``cmd_validate``, ``_stats_one``,
``_plot_one``, ``cmd_transform``), so outputs land where the CLI would
write them and are checked like the untraced ones.  Inside
``compute_all`` the Workspace's passes are touched right after it is
built, so each ``stats.stat.<name>_s`` holds only that statistic's work.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import subprocess
import sys
import time
from argparse import Namespace
from collections import defaultdict
from pathlib import Path

import checks
import run as bench

STARTUPS = 3  # interpreter start-ups timed for cli.startup_s


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.max = defaultdict(float)
        self.stack: list[str] = []
        self.top_level = 0.0
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str):
        outer = name in self.stack
        self.stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self.stack.pop()
            if not outer:
                self.seconds[name] += took
            if not self.stack:
                self.top_level += took

    def _timed(self, fn, name, after):
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label) if label else contextlib.nullcontext():
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper

    def wrap(self, owners, attr, name, after=None):
        """Time ``attr`` of every module or class in ``owners`` under ``name``
        (no span when ``name`` is None; a callable ``name`` makes the span's
        name from the call's arguments), then pass its result to ``after``."""
        for owner in owners:
            fn = getattr(owner, attr)
            self._undo.append(lambda o=owner, f=fn: setattr(o, attr, f))
            setattr(owner, attr, self._timed(fn, name, after))

    def wrap_cached(self, cls, attr, name, after=None):
        """Time the first (computing) access of a cached property."""
        prop = cls.__dict__[attr]
        fn = prop.func
        self._undo.append(lambda: setattr(prop, "func", fn))
        prop.func = self._timed(fn, name, after)

    def wrap_items(self, table: dict, name):
        """Time every function of a lookup table under ``name(key)``."""
        saved = dict(table)
        self._undo.append(lambda: table.update(saved))
        for key, fn in saved.items():
            table[key] = self._timed(fn, name(key), None)

    def undo(self):
        while self._undo:
            self._undo.pop()()


def install(t: Tracer, ns):
    """Wrap the program's layer boundaries; ``ns`` holds the imported modules."""
    cli, graph, io_, plots, spectral, stats = (
        ns.cli, ns.graph, ns.io, ns.plots, ns.spectral, ns.stats)

    def records(out):
        t.counts["io.records"] += len(out[0].src)

    def lcc(_):
        t.counts["graph.lcc_calls"] += 1

    def hops(data):
        t.counts["stats.bfs_sources"] += data.sources
        t.counts["stats.bfs_levels"] += len(data.counts) - 1

    def solved(res):
        t.counts["spectral.solves"] += 1
        if res.method in ("dense", "iterative"):
            t.counts[f"spectral.{res.method}_solves"] += 1
        if len(res.residuals):
            t.max["spectral.max_residual"] = max(t.max["spectral.max_residual"],
                                                 float(max(res.residuals)))

    def workspace(_):
        t.counts["stats.workspaces"] += 1

    def written(_):
        t.counts["cli.files_written"] += 1

    def rendered(out):
        t.counts["svg.bytes"] += len(out)

    t.wrap([cli, io_], "parse_out", "io.parse_out_s", records)
    t.wrap([cli, io_], "parse_meta", "io.parse_meta_s")
    t.wrap([cli], "validate", "io.validate_s")
    t.wrap([cli], "write_out", "io.write_out_s")
    t.wrap_cached(graph.Graph, "pattern", "graph.pattern_s")
    t.wrap_cached(graph.Graph, "component_labels", "graph.components_s")
    t.wrap([cli, graph, plots, stats], "largest_connected_component", "graph.lcc_s", lcc)
    t.wrap([graph, plots, spectral, stats], "latest_state", "graph.latest_state_s")
    t.wrap([stats.Workspace], "__init__", None, workspace)
    t.wrap_cached(stats.Workspace, "hops", "stats.pass.hops_s", hops)
    t.wrap_cached(stats.Workspace, "triangle_count", "stats.pass.triangles_s")
    t.wrap_cached(stats.Workspace, "tour4_trace", "stats.pass.tour4_s")
    t.wrap([plots, spectral, stats], "build_operator", "spectral.build_operator_s")
    t.wrap([plots, spectral, stats], "eig_symmetric", "spectral.solve_s", solved)
    t.wrap([plots, spectral], "eig_general", "spectral.solve_s", solved)
    t.wrap([cli], "render_svg", "svg.render_s", rendered)
    t.wrap([cli], "_atomic_write", "cli.write_s", written)
    t.wrap([cli], "_plot_series", lambda kind, *_: f"plots.{kind}_s")
    t.wrap([stats], "statistics_tsv", "stats.tsv_s")
    # compute_all and cmd_transform look their functions up in tables
    t.wrap_items(stats._REGISTRY, lambda name: f"stats.stat.{name}_s")
    lcc_fn = cli.TRANSFORMS["lcc"]
    t._undo.append(lambda: cli.TRANSFORMS.__setitem__("lcc", lcc_fn))
    cli.TRANSFORMS["lcc"] = cli.largest_connected_component
    passes_first(t, stats)


PASSES = ("g", "pattern", "lcc", "hops", "triangle_count", "tour4_trace")


def passes_first(t: Tracer, stats):
    """While ``compute_all`` runs, the Workspace it builds touches its passes
    first (a failing pass is left for the statistic that needs it to report)."""
    base = stats.Workspace

    class PassesFirst(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for attr in PASSES:
                with contextlib.suppress(Exception):
                    getattr(self, attr)

    compute_all = stats.compute_all

    def traced(*args, **kwargs):
        stats.Workspace = PassesFirst
        try:
            return compute_all(*args, **kwargs)
        finally:
            stats.Workspace = base

    t._undo.append(lambda: setattr(stats, "compute_all", compute_all))
    stats.compute_all = traced


def _options(cli):
    args = cli.build_parser().parse_args(["stats", "x"])  # the CLI's defaults
    return cli._options(args), args.k


def _quiet(fn, *args) -> tuple[int, str]:
    """Call a CLI command; its exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = fn(*args)
    return rc, buf.getvalue()


def pool_efficiency(ns, units, out: Path, opts, k, sequential: float) -> float:
    """In-process time of the traced statistics over jobs x wall time of the
    CLI's pool computing the same statistics, for the units marked ``pool``."""
    cli = ns.cli
    pooled = [u for u in units if u.pool]
    if not pooled:
        return 1.0  # the workload is not put through the pool
    names = list(ns.stats.statistic_names())
    wall = 0.0
    for unit in pooled:
        tasks = [(name, str(p), "stats", names, opts, str(out), k)
                 for name, p in cli._discover(str(unit.path))]
        start = time.perf_counter()
        cli._run_parallel(bench.POOL_JOBS, tasks)
        wall += time.perf_counter() - start
    print(f"pool: {sequential:.2f} s in process, {wall:.2f} s with "
          f"{bench.POOL_JOBS} workers", file=sys.stderr)
    return sequential / (bench.POOL_JOBS * wall)


def startup_seconds() -> float:
    times = []
    for _ in range(STARTUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import netstats.cli"], check=True,
                       env=bench.program_env(), cwd=bench.ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


PER_LAYER = (
    [("io.parse_out_s", "s"), ("io.parse_meta_s", "s"), ("io.validate_s", "s"),
     ("io.write_out_s", "s"), ("io.records", "count"),
     ("graph.pattern_s", "s"), ("graph.components_s", "s"), ("graph.lcc_s", "s"),
     ("graph.latest_state_s", "s"), ("graph.lcc_calls", "count"),
     ("stats.workspaces", "count"), ("stats.pass.hops_s", "s"),
     ("stats.pass.triangles_s", "s"), ("stats.pass.tour4_s", "s"),
     ("stats.bfs_sources", "count"), ("stats.bfs_levels", "count"), ("stats.tsv_s", "s")]
    + [(f"stats.stat.{name}_s", "s") for name in checks.STAT_NAMES]
    + [("spectral.build_operator_s", "s"), ("spectral.solve_s", "s"),
       ("spectral.solves", "count"), ("spectral.dense_solves", "count"),
       ("spectral.iterative_solves", "count"), ("spectral.max_residual", "ratio")]
    + [(f"plots.{kind}_s", "s") for kind in checks.PLOT_KINDS]
    + [("svg.render_s", "s"), ("svg.bytes", "B"),
       ("cli.startup_s", "s"), ("cli.write_s", "s"), ("cli.files_written", "count"),
       ("cli.pool_efficiency", "ratio"), ("trace.wall_s", "s"), ("trace.unaccounted_s", "s")]
)


def _merge(results, key, rc, output):
    old_rc, old_output = results.get(key, (0, ""))
    results[key] = (max(old_rc, rc), old_output + output)


def run(units, out: Path, tally, exact: bool) -> dict:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from netstats import cli, graph, plots, spectral, stats
    from netstats import io as io_

    ns = Namespace(cli=cli, graph=graph, io=io_, plots=plots, spectral=spectral, stats=stats)
    shutil.rmtree(out, ignore_errors=True)
    res, tfm = out / "results", out / "transformed"
    opts, k = _options(cli)
    t = Tracer()
    install(t, ns)
    results = {}
    start = time.perf_counter()
    try:
        for unit in units:
            results[id(unit), "validate"] = _quiet(
                cli.cmd_validate, Namespace(paths=[str(unit.path)]))
        datasets = [(unit, name, path) for unit in units
                    for name, path in cli._discover(str(unit.path))]
        sequential = 0.0  # statistics of the datasets the pool run repeats
        for unit, name, path in datasets:
            begin = time.perf_counter()
            names = unit.stats or list(stats.statistic_names())
            out_, rc = cli._stats_one(name, str(path), names, opts, str(res))
            sequential += (time.perf_counter() - begin) * unit.pool
            _merge(results, (id(unit), "stats"), rc, out_)
        for unit, name, path in datasets:
            kinds = checks.PLOT_KINDS if unit.kinds is None else unit.kinds
            out_, rc = cli._plot_one(name, str(path), list(kinds), opts, str(res), k,
                                     unit.kinds is None)
            _merge(results, (id(unit), "plot"), rc, out_)
        for unit in units:
            if unit.transform:
                results[id(unit), "transform"] = _quiet(
                    cli.cmd_transform, Namespace(name="lcc", dataset=str(unit.path),
                                                 out=str(tfm)))
        wall = time.perf_counter() - start
    finally:
        t.undo()
    bench.check_round(units, res, tfm, results, tally, exact)

    values = dict(t.seconds)
    values.update(t.counts)
    values.update(t.max)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_s"] = wall - t.top_level
    values["cli.startup_s"] = startup_seconds()
    values["cli.pool_efficiency"] = pool_efficiency(ns, units, out / "pool", opts, k, sequential)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
