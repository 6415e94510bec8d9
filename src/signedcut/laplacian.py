"""Standard and signed Laplacian operators exposed through matvec products.

The standard Laplacian uses the diagonal of plain row sums and can be
indefinite when weights are negative; the signed Laplacian uses absolute
row sums and is always positive semi-definite.  Operators keep the edge
list and degree vector rather than an assembled matrix; applying one costs
O(n + m) per vector.  A block product runs one 1-D scatter per column,
bit-identical to the block form (one 2-D scatter over the whole block),
because numpy's fast ``ufunc.at`` path serves only 1-D operands.  A dense
materialization is available for n <= DENSE_MAX_DIM to feed the dense
eigensolver oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, DimensionTooLargeError
from .graph import DENSE_MAX_DIM, DegreeMode, SignedGraph, degrees


class LaplacianKind(str, Enum):
    STANDARD = "standard"
    SIGNED = "signed"


class SymmetricOperator:
    """Symmetric linear operator of dimension n with block matvec access.

    ``diagonal`` and ``radii`` are the Gershgorin discs: the centres a_ii
    and the off-diagonal absolute row sums r_i = sum_j |a_ij|.  They give
    the largest absolute row sum and a lower bound on the spectrum without
    a dense matrix.  ``graph`` is the signed graph the operator was built
    from, if any; the multilevel preconditioner coarsens it.
    """

    def __init__(
        self,
        n: int,
        matmat: Callable[[np.ndarray], np.ndarray],
        dense_builder: Callable[[], np.ndarray],
        diagonal: np.ndarray,
        radii: np.ndarray,
        graph: Optional[SignedGraph] = None,
    ):
        self.n = int(n)
        self.diagonal = diagonal
        self.radii = radii
        self.graph = graph
        self._matmat = matmat
        self._dense_builder = dense_builder

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
        Y = self._matmat(X)
        return Y[:, 0] if single else Y

    def dense(self) -> np.ndarray:
        """Dense n-by-n materialization; only offered for n <= DENSE_MAX_DIM."""
        if self.n > DENSE_MAX_DIM:
            raise DimensionTooLargeError(
                f"n={self.n} exceeds dense threshold {DENSE_MAX_DIM}"
            )
        return self._dense_builder()


def laplacian(g: SignedGraph, kind: LaplacianKind | str = LaplacianKind.STANDARD) -> SymmetricOperator:
    """Laplacian operator of the requested kind for a signed graph."""
    kind = LaplacianKind(kind)
    mode = DegreeMode.ABSOLUTE_SUM if kind is LaplacianKind.SIGNED else DegreeMode.SIGNED_SUM
    d = degrees(g, mode)
    ii, jj, ww = g.edge_arrays()
    # each edge scatters into row i, then row j: the order of the block form
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    vals = np.concatenate([ww, ww])

    def matmat(X: np.ndarray) -> np.ndarray:
        # keeps X's memory layout, as the block form did: later matmuls on
        # another layout may round differently
        Y = np.empty_like(X)
        for c in range(X.shape[1]):
            x = X[:, c]
            y = d * x
            np.subtract.at(y, rows, vals * x[cols])
            Y[:, c] = y
        return Y

    def dense_builder() -> np.ndarray:
        L = np.diag(d.copy())
        L[ii, jj] -= ww
        L[jj, ii] -= ww
        return L

    # the same additions in the same order as degrees(): for the signed kind
    # the radii equal d bit for bit, so the Gershgorin bound is exactly 0
    radii = np.bincount(rows, np.abs(vals), minlength=g.n)
    return SymmetricOperator(g.n, matmat, dense_builder, d, radii, g)


def quadratic_form(op: SymmetricOperator, x: np.ndarray) -> float:
    """Return <x, op(x)>."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != op.n:
        raise DimensionMismatchError(
            f"expected a length-{op.n} vector, got shape {x.shape}"
        )
    return float(x @ op.matmat(x))
