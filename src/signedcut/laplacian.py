"""The operator diag(d) - W of a signed graph, for both Laplacian kinds.

W is the graph's symmetric adjacency matrix.  The standard Laplacian takes
d the plain row sums of W and can be indefinite when weights are negative;
the signed Laplacian takes the absolute row sums and is always positive
semi-definite.  The multilevel preconditioner's level matrices are the same
operator with the absolute row sums plus a non-negative diagonal.  An
operator keeps the edge list and d rather than an assembled matrix;
applying it costs O(n + m) per vector.  A block product runs one 1-D
scatter per column, bit-identical to the block form (one 2-D scatter over
the whole block), because numpy's fast ``ufunc.at`` path serves only 1-D
operands.  A dense materialization is available for n <= DENSE_MAX_DIM to
feed the dense eigensolver oracle.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .graph import DegreeMode, SignedGraph, degrees


class LaplacianKind(str, Enum):
    STANDARD = "standard"
    SIGNED = "signed"


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
        self.radii = degrees(graph, DegreeMode.ABSOLUTE_SUM)
        ii, jj, ww = graph.edge_arrays()
        # each edge scatters into row i, then row j: the order of the block form
        self._rows = np.concatenate([ii, jj])
        self._cols = np.concatenate([jj, ii])
        self._vals = np.concatenate([ww, ww])

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
        for c in range(X.shape[1]):
            x = X[:, c]
            y = self.diagonal * x
            np.subtract.at(y, self._rows, self._vals * x[self._cols])
            Y[:, c] = y
        return Y[:, 0] if single else Y

    def dense(self) -> np.ndarray:
        """Dense n-by-n materialization; only offered for n <= DENSE_MAX_DIM."""
        L = self.graph.dense_adjacency()
        # 0 - w, in place: the entries off the edges stay +0.0, as they
        # would not under negation, and no second n-by-n array is made
        np.subtract(0.0, L, out=L)
        np.fill_diagonal(L, self.diagonal)
        return L


def laplacian(g: SignedGraph, kind: LaplacianKind | str = LaplacianKind.STANDARD) -> SymmetricOperator:
    """Laplacian operator of the requested kind for a signed graph."""
    kind = LaplacianKind(kind)
    mode = DegreeMode.ABSOLUTE_SUM if kind is LaplacianKind.SIGNED else DegreeMode.SIGNED_SUM
    return SymmetricOperator(g, degrees(g, mode))
