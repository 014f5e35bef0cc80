"""``plots.PLOTS`` is the one declaration of the plot kinds and their files.

The command line looks every kind up in the catalog, and the benchmark under
``perfbench/`` names the same kinds, statistics and file stems on its own:
a renamed kind or slug fails here rather than in a benchmark run.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from netstats import cli, plots, stats
from netstats.graph import Format, Graph, GraphError, WeightType
from netstats.stats import Workspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    return checks


def _graph(fmt):
    """Four nodes with a triangle, a parallel edge, weights and timestamps."""
    return Graph(fmt=fmt, weights=WeightType.MULTIPOSWEIGHTED, n1=4, n2=None,
                 src=np.array([1, 2, 3, 4, 1, 1]), dst=np.array([2, 3, 4, 1, 3, 2]),
                 weight=np.array([1.0, 2.0, 3.0, 1.0, 2.0, 5.0]),
                 timestamp=np.arange(6.0))


def test_benchmark_names_the_program_kinds_and_statistics(checks):
    assert tuple(plots.PLOTS) == checks.PLOT_KINDS
    assert stats.statistic_names() == checks.STAT_NAMES


@pytest.mark.parametrize("kind", list(plots.PLOTS))
def test_benchmark_names_each_kind_plot_files(checks, kind):
    for fmt in (Format.UNDIRECTED, Format.DIRECTED):
        try:
            files = plots.PLOTS[kind](Workspace(_graph(fmt)), checks.K)
        except GraphError:
            continue
        slugs = [stem.removeprefix("plot.") for stem, _ in files if stem.startswith("plot.")]
        assert slugs == checks.PLOT_FILES[kind]
        return
    pytest.fail(f"{kind} applies to neither test graph")


def test_cli_names_no_plot_kind():
    source = Path(cli.__file__).read_text()
    literals = [node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    offenders = [s for s in literals if s in plots.PLOTS or re.search(r"\bplot\.", s)]
    offenders += re.findall(r"_plots\.plot_\w+|\bdraw_graph\b", source)
    assert offenders == []
