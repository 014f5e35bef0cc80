"""Network statistics, spectra and plot-data generation for edge-table datasets.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` in the environment.
Spectral values change in their last digits with OpenBLAS's thread count,
and the command line runs one process per core, so each process gets one
BLAS thread.  numpy and scipy read the variable when they load their
OpenBLAS, so it acts only when ``netstats`` is imported before either.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import importlib

# each public name, by the module that defines it; a module is imported when
# one of its names is first used, so ``import netstats`` loads neither numpy
# nor scipy and each command loads only what it runs
_PUBLIC = {
    "graph": ("Format", "Graph", "GraphError", "IncompatibleGraphError", "InvalidNodeError",
              "WeightType", "absolute", "dedupe", "largest_connected_component",
              "latest_state", "negate", "strip_weights"),
    "io": ("DatasetError", "Finding", "Header", "Metadata", "parse_meta", "parse_out",
           "validate", "write_meta", "write_out"),
    "spectral": ("MatrixKind", "SpectralError", "SpectralResult", "build_operator",
                 "eig_general", "eig_symmetric", "svd_biadjacency"),
    "stats": ("Options", "StatisticValue", "compute", "compute_all", "distance_histogram",
              "eccentricity", "local_clustering", "statistic_names", "statistics_tsv"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    """A public name or one of the modules above, imported on first use (PEP 562)."""
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC, *_MODULE_OF})
