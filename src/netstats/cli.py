"""Command-line front end: validate, stats, plot and transform subcommands.

Outputs are reproducible: a fixed seed drives every estimated quantity, and
files are written atomically (temp + rename) under
``<outdir>/<network>/``.  The default output directory comes from the
``NETSTAT_OUT`` environment variable.  ``stats`` and ``plot`` process the
datasets of a directory in forked workers, one per usable core unless
``--jobs`` asks for fewer; ``stats`` on a single dataset forks its
statistics across the workers instead.  The statistics and the plot kinds
are looked up in their catalogs, ``stats.statistic_names()`` and
``plots.PLOTS``; this module names neither.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

# the statistics, spectra and plots (and scipy beneath them) are imported by
# the commands that run them, so validate and transform load numpy alone
from .graph import (
    GraphError,
    absolute,
    dedupe,
    largest_connected_component,
    latest_state,
    negate,
    strip_weights,
)
from .io import DatasetError, parse_meta, parse_out, validate, write_out
from .svg import render_svg


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise CliError(message)


TRANSFORMS = {
    "unweighted": strip_weights,
    "simple": dedupe,
    "absolute": absolute,
    "negate": negate,
    "lcc": largest_connected_component,
    "latest-state": latest_state,
}


def _discover(path: str) -> list[tuple[str, Path]]:
    """Map a dataset file or directory to (network name, out-file) pairs."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("out.*"))
        if not files:
            raise CliError(f"no out.* files under {p}")
        return [(f.name[4:], f) for f in files]
    if not p.exists():
        raise CliError(f"no such file: {p}", code=2)
    name = p.name[4:] if p.name.startswith("out.") else p.stem
    return [(name, p)]


def _load(out_path: Path):
    meta = None
    meta_path = out_path.with_name("meta." + out_path.name[4:]) if out_path.name.startswith("out.") else None
    if meta_path and meta_path.exists():
        meta = parse_meta(meta_path.read_bytes())
    tags = meta.tags if meta is not None else frozenset()
    graph, header = parse_out(out_path.read_bytes(), tags=tags)
    return graph, header, meta


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _options(args):
    """The ``stats.Options`` that the parsed arguments set."""
    from . import stats

    return stats.Options(
        exact_threshold=args.exact_threshold,
        sample_sources=args.sample_sources,
        tol=args.tol,
        seed=args.seed,
    )


# -- validate ----------------------------------------------------------------


def cmd_validate(args) -> int:
    worst = 0
    for path in args.paths:
        try:
            datasets = _discover(path)
        except CliError as exc:
            if exc.code == 2:
                print(f"error\t\t{exc}", file=sys.stderr)
                return 2
            raise
        for name, out_path in datasets:
            try:
                graph, header, meta = _load(out_path)
            except OSError as exc:
                print(f"error\t\t{name}: unreadable: {exc}")
                return 2
            except DatasetError as exc:
                print(f"error\t{exc.line or ''}\t{name}: {exc.message}")
                worst = max(worst, 1)
                continue
            if meta is None:
                print(f"warning\t\t{name}: no meta file found")
            for finding in validate(graph, header, meta):
                print(f"{finding.as_row()}")
                if finding.severity == "error":
                    worst = max(worst, 1)
    return worst


# -- stats -------------------------------------------------------------------


def cmd_stats(args) -> int:
    from . import stats  # before any fork: the workers inherit it

    names = _selected(args.names, args.stats, args.all, stats.statistic_names(), "statistic")
    opts = _options(args)
    outdir = args.out or os.environ.get("NETSTAT_OUT")
    datasets = _discover(args.dataset)
    if len(datasets) == 1:  # the workers share out its statistics instead
        (name, p), = datasets
        results = [(name, *_stats_one(name, str(p), names, opts, outdir, args.jobs))]
    else:
        tasks = [(name, str(p), "stats", names, opts, outdir, args.k) for name, p in datasets]
        results = _run_parallel(args.jobs, tasks)
    code = 0
    for _name, output, rc in results:
        if output:
            sys.stdout.write(output)
        code = max(code, rc)
    return code


def _selected(positional, flag_value, all_flag, known, what) -> list[str]:
    known = list(known)
    if all_flag:
        return known
    requested = list(positional or [])
    if flag_value:
        requested.extend(x for x in flag_value.split(",") if x)
    if not requested:
        raise CliError(f"pick {what} names or pass --all (valid: {', '.join(known)})")
    for name in requested:
        if name not in known:
            raise CliError(f"unknown {what} {name!r}; valid names: {', '.join(known)}")
    return requested


def _stats_one(network, path, names, opts, outdir, jobs=1) -> tuple[str, int]:
    from . import stats

    try:
        graph, _header, _meta = _load(Path(path))
        if jobs > 1:
            text = _stats_forked(graph, names, opts, jobs)
        else:
            text = stats.statistics_tsv(stats.compute_all(graph, opts, names=names))
    except (DatasetError, GraphError) as exc:  # a graph without nodes has no Workspace
        return f"error: {network}: {exc}\n", 1
    if outdir:
        _atomic_write(Path(outdir) / network / "statistics.tsv", text.encode())
        return "", 0
    return text, 0


_forked_ws = None  # the Workspace that forked statistics workers inherit


def _stats_forked(graph, names, opts, jobs) -> str:
    """One dataset's statistics TSV, its statistics mapped over forked workers.

    The rows come back in the order of ``names``, so the text is the serial
    run's whatever the scheduling.
    """
    from . import stats

    global _forked_ws
    ws = stats.Workspace(graph, opts)
    ws.pattern, ws.lcc  # every statistic reads both: build them once, before the fork
    _forked_ws = ws
    try:
        rows = _run_parallel(jobs, names, _stat_row)
    finally:
        _forked_ws = None
    return stats.TSV_HEADER + "".join(rows)


def _stat_row(name) -> str:
    from . import stats

    # rendered in the worker: not every exception survives the trip back
    # (ArpackNoConvergence pickles but does not unpickle)
    return stats.statistics_row(name, stats.compute_row(_forked_ws, name))


# -- plot --------------------------------------------------------------------

def _plot_series(kind, ws, k):
    """The files of one plot kind, as ``plots.PLOTS`` declares them."""
    from . import plots

    # a function of its own: perfbench/trace_run.py wraps it to time each kind
    return plots.PLOTS[kind](ws, k)


def _plot_one(network, path, kinds, opts, outdir, k, all_mode) -> tuple[str, int]:
    from . import stats

    try:
        graph, _header, _meta = _load(Path(path))
        ws = stats.Workspace(graph, opts)
    except (DatasetError, GraphError) as exc:  # a graph without nodes has no Workspace
        return f"error: {network}: {exc}\n", 1
    messages = []
    code = 0
    for kind in kinds:
        files = {}  # rendered in full before any is written
        try:
            for stem, content in _plot_series(kind, ws, k):
                if isinstance(content, str):
                    files[f"{stem}.{network}.tsv"] = content.encode()
                else:
                    files[f"{stem}.{network}.tsv"] = content.to_tsv().encode()
                    files[f"{stem}.{network}.svg"] = render_svg(content)
        except GraphError as exc:
            if all_mode:
                messages.append(f"skipped\t{network}\t{kind}\t{exc}\n")
                continue
            messages.append(f"error: {network}: {kind}: {exc}\n")
            code = 1
            continue
        for name, data in files.items():
            _atomic_write(Path(outdir) / network / name, data)
    return "".join(messages), code


def cmd_plot(args) -> int:
    from . import plots  # before any fork: the workers inherit it

    kinds = _selected(args.kinds, args.plots, args.all, plots.PLOTS, "plot kind")
    outdir = args.out or os.environ.get("NETSTAT_OUT")
    if not outdir:
        raise CliError("plots need an output directory (--out or NETSTAT_OUT)")
    opts = _options(args)
    tasks = [
        (name, str(p), "plot", kinds, opts, outdir, args.k, args.all)
        for name, p in _discover(args.dataset)
    ]
    code = 0
    for _name, output, rc in _run_parallel(args.jobs, tasks):
        if output:
            sys.stdout.write(output)
        code = max(code, rc)
    return code


# -- transform ---------------------------------------------------------------


def cmd_transform(args) -> int:
    fn = TRANSFORMS.get(args.name)
    if fn is None:
        raise CliError(
            f"unknown transform {args.name!r}; valid: {', '.join(TRANSFORMS)}"
        )
    outdir = args.out or os.environ.get("NETSTAT_OUT") or "."
    code = 0
    for network, out_path in _discover(args.dataset):
        try:
            graph, _header, _meta = _load(out_path)
            transformed = fn(graph)
        except (DatasetError, GraphError) as exc:
            print(f"error: {network}: {exc}", file=sys.stderr)
            code = 1
            continue
        target = Path(outdir) / f"out.{network}_{args.name.replace('-', '')}"
        _atomic_write(target, write_out(transformed))
        print(target)
    return code


# -- plumbing ----------------------------------------------------------------


def _worker(task):
    name = task[0]
    mode = task[2]
    if mode == "stats":
        _n, path, _m, names, opts, outdir, _k = task
        output, rc = _stats_one(name, path, names, opts, outdir)
    else:
        _n, path, _m, kinds, opts, outdir, k, all_mode = task
        output, rc = _plot_one(name, path, kinds, opts, outdir, k, all_mode)
    return name, output, rc


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has an affinity mask
        return os.cpu_count() or 1


def _worker_count(jobs, tasks) -> int:
    """Workers for ``tasks`` items: ``--jobs``, capped at the items and the cores."""
    return min(jobs, tasks, _usable_cores())


def _run_parallel(jobs, tasks, worker=_worker):
    """``worker`` over ``tasks`` in forked processes, results in task order."""
    jobs = _worker_count(jobs, len(tasks))
    if jobs <= 1:
        return [worker(t) for t in tasks]
    import concurrent.futures
    import multiprocessing

    # forked workers start with the modules already imported; the package
    # pins OpenBLAS to one thread, so the process has no threads to fork
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        return list(pool.map(worker, tasks))


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command line's parser.  ``stats`` and ``plot`` read their defaults
    and plot kinds from the statistics and plot modules, so their arguments
    are added only when ``command`` names them or is None (every subcommand)."""
    parser = _Parser(prog="netstats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        from . import stats
        from .spectral import SPECTRUM_K

        p.add_argument("dataset", help="an out.* file or a directory of datasets")
        p.add_argument("--out", default=None, help="output directory (default $NETSTAT_OUT)")
        defaults = stats.DEFAULT_OPTIONS
        p.add_argument("--exact-threshold", type=int, default=defaults.exact_threshold)
        p.add_argument("--sample-sources", type=int, default=defaults.sample_sources)
        p.add_argument("--tol", type=float, default=defaults.tol)
        p.add_argument("--k", type=int, default=SPECTRUM_K)
        p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--jobs", type=int, default=_usable_cores(),
                       help="worker processes, at most the usable cores (default: usable cores)")

    v = sub.add_parser("validate", help="check dataset files against the format rules")
    v.add_argument("paths", nargs="+")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("stats", help="compute statistics to TSV")
    s.set_defaults(fn=cmd_stats)
    if command in (None, "stats"):
        common(s)
        s.add_argument("names", nargs="*", default=None, help="statistic names")
        s.add_argument("--stats", default=None, help="comma separated statistic names")
        s.add_argument("--all", action="store_true", help="every applicable statistic")

    p = sub.add_parser("plot", help="emit plot data (TSV) and SVG renderings")
    p.set_defaults(fn=cmd_plot)
    if command in (None, "plot"):
        from . import plots

        common(p)
        p.add_argument("kinds", nargs="*", default=None, help=f"kinds: {', '.join(plots.PLOTS)}")
        p.add_argument("--plots", default=None, help="comma separated plot kinds")
        p.add_argument("--all", action="store_true", help="every applicable plot")

    t = sub.add_parser("transform", help="apply a graph transform, writing new dataset files")
    t.add_argument("name", choices=sorted(TRANSFORMS))
    t.add_argument("dataset")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_transform)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first argument that is not an option names the subcommand (no
    # top-level option takes a value)
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        for option in ("jobs", "k", "sample_sources"):  # not on validate or transform
            value = getattr(args, option, 1)
            if value < 1:
                flag = "--" + option.replace("_", "-")
                parser.error(f"argument {flag}: must be at least 1, got {value}")
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
