"""The operator diag(d) - W of a signed graph, for both Laplacian kinds.

W is the graph's symmetric adjacency matrix.  The standard Laplacian takes
d the plain row sums of W and can be indefinite when weights are negative;
the signed Laplacian takes the absolute row sums and is always positive
semi-definite.  The multilevel preconditioner's level matrices are the same
operator with the absolute row sums plus a non-negative diagonal.  An
operator keeps the edge list and d rather than an assembled matrix;
applying it costs O(n + m) per vector.  A block product runs two 1-D
scatters per column, the edges into rows i and then into rows j, on the
graph's own edge arrays.  That is bit-identical to the block form (one 2-D
scatter over the whole block), because numpy's fast ``ufunc.at`` path
serves only 1-D operands.  The dense n-by-n matrix, which feeds the dense
eigensolver oracle, is offered up to the dense threshold DENSE_MAX_DIM.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, DimensionTooLargeError, GraphError
from .graph import SignedGraph, degrees

# Largest dimension for which n-by-n dense matrices are built.
DENSE_MAX_DIM = 2048


class LaplacianKind(str, Enum):
    STANDARD = "standard"
    SIGNED = "signed"

    @property
    def deflates_ones(self) -> bool:
        """Whether a solve of this kind leaves out ones, a null vector of every standard Laplacian."""
        return self is LaplacianKind.STANDARD


class SymmetricOperator:
    """The symmetric operator ``diag(diagonal) - W`` of a signed graph.

    ``diagonal`` and ``radii`` are the Gershgorin discs: the centres a_ii
    and the off-diagonal absolute row sums r_i = sum_j |w_ij|.  They give
    the largest absolute row sum and a lower bound on the spectrum without
    a dense matrix.  ``graph`` is the signed graph of W; the multilevel
    preconditioner coarsens it.
    """

    def __init__(self, graph: SignedGraph, diagonal: np.ndarray):
        self.n = graph.n
        self.graph = graph
        self.diagonal = diagonal
        # the same additions in the same order for d of the signed kind: the
        # radii equal it bit for bit, so its Gershgorin bound is exactly 0
        self.radii = degrees(graph, absolute=True)
        self._edges = graph.edge_arrays()

    @property
    def norm_inf(self) -> float:
        """Largest absolute row sum: the scale of the ones-deflation check."""
        return float((np.abs(self.diagonal) + self.radii).max())

    @property
    def gershgorin_lower(self) -> float:
        """Gershgorin lower bound min_i (a_ii - r_i) on the smallest eigenvalue."""
        return float((self.diagonal - self.radii).min())

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector (n,) or block of vectors (n, k)."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[:, None]
        if X.shape[0] != self.n:
            raise DimensionMismatchError(
                f"operand has leading dimension {X.shape[0]}, operator has {self.n}"
            )
        # keeps X's memory layout, as the block form did: later matmuls on
        # another layout may round differently
        Y = np.empty_like(X)
        ii, jj, ww = self._edges
        for c in range(X.shape[1]):
            x = X[:, c]
            y = self.diagonal * x
            # every edge into row i, then every edge into row j: the order of the block form
            np.subtract.at(y, ii, ww * x[jj])
            np.subtract.at(y, jj, ww * x[ii])
            Y[:, c] = y
        return Y[:, 0] if single else Y

    def dense(self) -> np.ndarray:
        """The n-by-n matrix ``diag(diagonal) - W``, for n <= DENSE_MAX_DIM only:
        -w at an edge's two entries, +0.0 off the edges and the diagonal."""
        if self.n > DENSE_MAX_DIM:
            raise DimensionTooLargeError(
                f"n={self.n} exceeds dense threshold {DENSE_MAX_DIM}"
            )
        L = np.zeros((self.n, self.n))
        ii, jj, ww = self._edges
        L[ii, jj] = L[jj, ii] = -ww
        np.fill_diagonal(L, self.diagonal)
        return L


def laplacian(g: SignedGraph, kind: LaplacianKind | str = LaplacianKind.STANDARD) -> SymmetricOperator:
    """Laplacian operator of the requested kind for a signed graph.

    Raises ``GraphError``, naming the first vertex, if an absolute row sum
    |a_ii| + r_i overflows, and then if the Gershgorin interval's width
    ``norm_inf - gershgorin_lower`` does: below that width every difference
    of two eigenvalues is finite.
    """
    kind = LaplacianKind(kind)
    with np.errstate(over="ignore"):
        op = SymmetricOperator(g, degrees(g, absolute=kind is LaplacianKind.SIGNED))
        finite = np.isfinite(np.abs(op.diagonal) + op.radii)
    if not finite.all():
        raise GraphError(f"the Laplacian's absolute row sum at vertex {int(finite.argmin())} (0-based) overflows")
    # a difference of Python floats overflows to inf without a warning
    if not math.isfinite(op.norm_inf - op.gershgorin_lower):
        raise GraphError(f"the Laplacian's Gershgorin bounds {op.gershgorin_lower:.6g} and "
                         f"{op.norm_inf:.6g} lie further apart than the float range")
    return op
