"""Network statistics, spectra and plot-data generation for edge-table datasets.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` in the environment.
Spectral values change in their last digits with OpenBLAS's thread count,
and the command line runs one process per core, so each process gets one
BLAS thread.  numpy and scipy read the variable when they load their
OpenBLAS, so it acts only when ``netstats`` is imported before either.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .graph import (
    Format,
    Graph,
    GraphError,
    IncompatibleGraphError,
    InvalidNodeError,
    WeightType,
    absolute,
    dedupe,
    largest_connected_component,
    latest_state,
    negate,
    strip_weights,
)
from .io import (
    DatasetError,
    Finding,
    Header,
    Metadata,
    parse_meta,
    parse_out,
    validate,
    write_meta,
    write_out,
)
from .spectral import (
    MatrixKind,
    SpectralError,
    SpectralResult,
    build_operator,
    eig_general,
    eig_symmetric,
    svd_biadjacency,
)
from .stats import (
    Options,
    StatisticValue,
    compute,
    compute_all,
    distance_histogram,
    eccentricity,
    local_clustering,
    statistic_names,
    statistics_tsv,
)

__version__ = "0.1.0"
