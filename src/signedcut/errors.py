"""Exception hierarchy for the signedcut package."""


class SignedCutError(Exception):
    """Base class for all signedcut errors."""


class GraphError(SignedCutError, ValueError):
    """Invalid graph construction input."""


class IndexOutOfRangeError(GraphError):
    """Vertex or edge index outside its range."""


class DuplicateEdgeError(GraphError):
    """Two entries canonicalize to the same vertex pair."""


class SelfLoopError(GraphError):
    """Edge joins a vertex to itself."""


class NonfiniteWeightError(GraphError):
    """Edge weight is NaN or infinite."""


class ZeroWeightError(GraphError):
    """Edge weight is exactly zero; absent edges carry no entry."""


class FormatError(SignedCutError, ValueError):
    """Malformed graph file."""


class AsymmetricMatrixError(FormatError):
    """General-symmetry matrix file disagrees with its transpose."""


class DimensionMismatchError(SignedCutError, ValueError):
    """Vector length does not match operator dimension."""


class DimensionTooLargeError(SignedCutError, ValueError):
    """Dense materialization requested above the dense threshold."""


class InsufficientSpectrumError(SignedCutError, ValueError):
    """Too few retained eigenvalues for the requested diagnostic."""


class MultiComponentError(SignedCutError, ValueError):
    """Graph is disconnected in the absolute-value sense."""


class SolverFailedError(SignedCutError, RuntimeError):
    """A solve did not produce the converged eigenpairs needed."""


class BasisDegenerateError(SolverFailedError):
    """Eigensolver search subspace lost rank and the restart failed, or a
    dense shifted solve stayed singular or collapsed onto the vectors before it."""


class DegenerateVectorError(SignedCutError, ValueError):
    """Vector has components of one sign only; bisection is meaningless."""


class EmptySideError(SignedCutError, ValueError):
    """Partition leaves one side with no vertices."""
