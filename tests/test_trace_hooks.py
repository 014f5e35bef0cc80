"""The benchmark's traced run wraps program names from outside the program.

``perfbench/trace_run.py`` replaces functions where the CLI, ``stats``,
``plots`` and ``spectral`` look them up.  A name it wraps that a module no
longer has makes the traced run die with ``AttributeError``, so this test
installs its wrappers on the live modules, runs one dataset through them and
checks that ``undo`` puts every name back.
"""

from argparse import Namespace
from pathlib import Path

from netstats import cli, graph, io, plots, spectral, stats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TWO_PARTS = b"% sym unweighted\n1 2\n2 3\n3 4\n4 1\n1 3\n5 6\n"


def _state():
    modules = [dict(vars(m)) for m in (cli, graph, io, plots, spectral, stats)]
    tables = [dict(cli.TRANSFORMS), dict(stats._REGISTRY)]
    cached = [cls.__dict__[attr].func for cls, attr in (
        (graph.Graph, "pattern"), (graph.Graph, "component_labels"),
        (stats.Workspace, "hops"), (stats.Workspace, "triangle_count"),
        (stats.Workspace, "tour4_trace"))]
    return modules, tables, cached, stats.Workspace.__init__


def test_trace_run_wraps_and_restores_the_live_modules(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import trace_run

    (tmp_path / "out.two").write_bytes(TWO_PARTS)
    before = _state()
    tracer = trace_run.Tracer()
    ns = Namespace(cli=cli, graph=graph, io=io, plots=plots, spectral=spectral, stats=stats)
    trace_run.install(tracer, ns)
    try:
        opts, k = trace_run._options(cli)
        res = str(tmp_path / "res")
        _, stats_rc = cli._stats_one("two", str(tmp_path / "out.two"), ["size"], opts, res)
        _, plot_rc = cli._plot_one("two", str(tmp_path / "out.two"),
                                   ["degree", "spectrum", "drawing", "distance"],
                                   opts, res, k, False)
    finally:
        tracer.undo()
    assert (stats_rc, plot_rc) == (0, 0)
    assert _state() == before
    for span in ("io.parse_out_s", "stats.stat.size_s", "plots.spectrum_s",
                 "plots.drawing_s", "spectral.solve_s", "cli.write_s"):
        assert tracer.seconds[span] > 0, span
    assert tracer.counts["spectral.solves"] == 6  # three spectra, three drawings
    assert tracer.counts["graph.lcc_calls"] == 2  # one Workspace per command
