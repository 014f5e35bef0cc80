"""Each command imports only the modules it runs.

``validate`` and the transforms run on numpy alone; ``stats`` and ``plot``
import the statistics, spectra and plots before they fork, so the workers
inherit them; ``import netstats`` loads nothing until a name is used.  What
a fresh interpreter has imported is only visible in one, so the checks run
in subprocesses.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import netstats
from netstats.cli import TRANSFORMS
from netstats.graph import Format, Graph, WeightType
from netstats.io import write_out

SRC = str(Path(netstats.__file__).parents[1])

# every name the package imported eagerly before it resolved them on first use
EXPORTED = (
    "DatasetError", "Finding", "Format", "Graph", "GraphError", "Header",
    "IncompatibleGraphError", "InvalidNodeError", "MatrixKind", "Metadata", "Options",
    "SpectralError", "SpectralResult", "StatisticValue", "WeightType", "__version__",
    "absolute", "build_operator", "compute", "compute_all", "dedupe",
    "distance_histogram", "eccentricity", "eig_general", "eig_symmetric", "graph", "io",
    "largest_connected_component", "latest_state", "local_clustering", "negate",
    "parse_meta", "parse_out", "spectral", "statistic_names", "statistics_tsv", "stats",
    "strip_weights", "svd_biadjacency", "validate", "write_meta", "write_out",
)


def _python(code, cwd):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _datasets(folder):
    """A signed multigraph with two components, and an event log whose latest
    state drops an edge: between them every transform applies to one."""
    signed = Graph(fmt=Format.UNDIRECTED, weights=WeightType.MULTISIGNED, n1=6, n2=None,
                   src=np.array([1, 1, 2, 3, 5]), dst=np.array([2, 2, 3, 1, 6]),
                   weight=np.array([1.0, -1.0, 2.0, -1.0, 1.0]))
    log = Graph(fmt=Format.DIRECTED, weights=WeightType.DYNAMIC, n1=4, n2=None,
                src=np.array([1, 2, 3, 1, 2, 3]), dst=np.array([2, 1, 4, 2, 3, 2]),
                weight=np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]), timestamp=np.arange(6.0))
    folder.mkdir()
    for name, g in (("signed", signed), ("log", log)):
        (folder / f"out.{name}").write_bytes(write_out(g))
    return folder / "out.signed", folder / "out.log"


def test_validate_and_every_transform_load_no_scipy(tmp_path):
    signed, log = _datasets(tmp_path / "data")
    runs = [["validate", str(signed), str(log)]]
    runs += [["transform", name, str(log if name == "latest-state" else signed),
              "--out", str(tmp_path / "out")] for name in TRANSFORMS]
    result = _python(f"""
        import json, sys
        from netstats import cli
        codes = [cli.main(argv) for argv in {runs!r}]
        scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        print(json.dumps({{"codes": codes, "scipy": scipy}}))
    """, tmp_path)
    assert result == {"codes": [0] * len(runs), "scipy": []}
    assert len(list((tmp_path / "out").glob("out.*"))) == len(TRANSFORMS)


def test_stats_and_plot_import_their_modules_before_they_fork(tmp_path):
    # tmp_path/data holds two datasets, so both commands hand them to the pool
    _datasets(tmp_path / "data")
    result = _python(f"""
        import json, sys
        from netstats import cli

        HEAVY = ("netstats.stats", "netstats.spectral", "netstats.plots")
        loaded = lambda: [m for m in HEAVY if m in sys.modules]
        seen = {{"import": loaded()}}
        run_parallel = cli._run_parallel

        def spy(jobs, tasks, *args):
            seen[tasks[0][2]] = loaded()  # the task's mode: stats or plot
            return run_parallel(jobs, tasks, *args)

        cli._run_parallel = spy
        for command, names in (("stats", ["size"]), ("plot", ["degree"])):
            cli.main([command, "data", *names, "--jobs", "1", "--out", "out"])
        print(json.dumps(seen))
    """, tmp_path)
    assert result == {
        "import": [],
        "stats": ["netstats.stats", "netstats.spectral"],
        "plot": ["netstats.stats", "netstats.spectral", "netstats.plots"],
    }
    assert (tmp_path / "out" / "log" / "statistics.tsv").exists()


def test_importing_the_package_pins_blas_and_loads_nothing(tmp_path):
    result = _python("""
        import json, os, sys
        os.environ["OPENBLAS_NUM_THREADS"] = "4"
        import netstats
        print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], "numpy" in sys.modules]))
    """, tmp_path)
    assert result == ["1", False]


def test_the_package_resolves_its_names_on_first_use():
    from netstats import compute, compute_all, parse_out, statistics_tsv
    from netstats import io, stats

    assert (parse_out, compute, compute_all, statistics_tsv) == (
        io.parse_out, stats.compute, stats.compute_all, stats.statistics_tsv)
    assert set(EXPORTED) <= set(dir(netstats))
    assert all(hasattr(netstats, name) for name in EXPORTED)
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        netstats.frobnicate
    with pytest.raises(ImportError):
        from netstats import frobnicate  # noqa: F401
