"""Spectral bisection of signed graphs.

Builds standard and signed Laplacians for graphs whose edge weights may be
negative, computes Fiedler vectors through a dense oracle or an iterative
block eigensolver, bisects by component signs, and quantifies partitions
with signed cut metrics and conditioning diagnostics.
"""

from .errors import (
    AsymmetricMatrixError,
    BasisDegenerateError,
    DegenerateVectorError,
    DimensionMismatchError,
    DimensionTooLargeError,
    DuplicateEdgeError,
    EmptySideError,
    FormatError,
    GraphError,
    IndexOutOfRangeError,
    InsufficientSpectrumError,
    MultiComponentError,
    NonfiniteWeightError,
    SelfLoopError,
    SignedCutError,
    SolverFailedError,
    ZeroWeightError,
)
from .graph import (
    SignedGraph,
    connected_in_absolute_value,
    degrees,
    graph_from_arrays,
    graph_from_edges,
    negate_weights,
    nullify_negative,
    scale_weights,
)
from .io import (
    load_graph,
    read_edge_csv,
    read_matrix_market,
    save_graph,
    write_edge_csv,
    write_matrix_market,
)
from .laplacian import DENSE_MAX_DIM, LaplacianKind, SymmetricOperator, laplacian
from .eigen import (
    DenseEigenproblem,
    SolverConfig,
    Spectrum,
    dense_spectrum,
    estimate_largest_eigenvalue,
    jacobi_preconditioner,
    lobpcg_lockstep,
    lobpcg_smallest,
    multilevel_preconditioner,
)
from .partition import (
    CLUSTERED_GAP_FRACTION,
    CutMetrics,
    FiedlerGap,
    FiedlerResult,
    baseline_gap,
    bisect,
    confidence,
    cut_metrics,
    fiedler,
    partition_json,
    select_fiedler,
)
from .generators import (
    DEFAULT_SPECIAL_EDGE,
    DEFAULT_STRING_LENGTH,
    NEGATIVE_EDGE_WEIGHT,
    WEAK_LINK_WEIGHT,
    StringSpec,
    cobra,
    dumbbell,
    noisy_string,
    path_string,
)
from .experiments import gap_study, truncated_iteration_study

__version__ = "0.1.0"
