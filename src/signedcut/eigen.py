"""Eigensolvers for the smallest eigenpairs of a symmetric operator.

Two routes to the smallest eigenpairs of a symmetric operator: a dense
oracle built on ``numpy.linalg.eigh`` (for n up to the dense threshold), and
an iterative locally optimal block conjugate-gradient solver that needs only
matvec products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BasisDegenerateError
from .laplacian import SymmetricOperator

# A basis column is dropped when its |diag R| is at most this times the largest.
_QR_DROP_TOL = 1e-8

# Below this, a diagonal entry of a column-scaled Cholesky factor is too close
# to its own rounding (about sqrt(eps)) to decide a drop; QR decides instead.
_CHOL_MIN_DIAG = 1e-5

# An eigenvector whose overlap with the unit ones vector exceeds this carries
# part of ones and is turned by the deflation; every other returned vector is
# orthogonal to ones up to this bound.
_ONES_OVERLAP_TOL = 1e-10

# The deflation requires |A u| <= this times the largest absolute row sum.
_ONES_RESIDUAL_REL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    converged: np.ndarray

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def spread(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True)
class SolverConfig:
    """Configuration for the iterative block solver.

    ``tol`` is an absolute residual tolerance scaled per column by
    max(1, |ritz value|).  ``deflate_ones`` keeps every iterate orthogonal
    to the all-ones vector, excluding the trivial constant eigenvector of a
    standard Laplacian from the search space.  ``precondition`` applies the
    Gershgorin-shifted Jacobi preconditioner (``jacobi_preconditioner``)
    to the residual block.
    """

    k: int
    block_size: Optional[int] = None
    tol: float = 1e-8
    max_iter: int = 200
    seed: int = 0
    deflate_ones: bool = False
    precondition: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.block_size is not None and self.block_size < self.k:
            raise ValueError(
                f"block_size {self.block_size} smaller than k {self.k}"
            )
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def effective_block_size(self) -> int:
        return self.block_size if self.block_size is not None else self.k


@dataclass
class IterationTrace:
    """Per-iteration Ritz values and max residual norm over wanted columns."""

    ritz_values: list[np.ndarray] = field(default_factory=list)
    max_residuals: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ritz_values)


def dense_spectrum(op: SymmetricOperator) -> Spectrum:
    """Full spectrum via the dense oracle; requires n <= dense threshold."""
    A = op.dense()
    evals, evecs = np.linalg.eigh(A)
    res = np.linalg.norm(A @ evecs - evecs * evals, axis=0)
    return Spectrum(
        eigenvalues=evals,
        eigenvectors=evecs,
        residual_norms=res,
        converged=np.ones(len(evals), dtype=bool),
    )


def dense_spectrum_deflated(op: SymmetricOperator) -> Spectrum:
    """Dense spectrum restricted to the complement of the ones vector.

    The ones vector must be an eigenvector of the operator, as it is for
    every standard Laplacian; an operator that moves it by more than
    rounding (``||A u||`` above ``_ONES_RESIDUAL_REL`` times the largest
    absolute row sum, u = ones/sqrt(n)) raises ``ValueError``.

    One ``eigh`` gives the full eigenbasis.  The columns whose overlap with
    u exceeds ``_ONES_OVERLAP_TOL`` span u: one column for a connected
    graph, one per component for a disconnected one.  A Householder
    reflector turns that small block so that u becomes one of its columns,
    which is dropped; the other block columns take the diagonal of the
    turned eigenvalue block.  The n-1 pairs come back in eigenvalue order.
    All other columns are returned untouched: on a graph without negative
    edges, where the standard and signed Laplacians coincide, a block of one
    column leaves both kinds with bit-identical eigenvectors.
    """
    A = op.dense()
    n = op.n
    u = np.full(n, 1.0 / math.sqrt(n))
    _require_ones_null(op, A @ u)
    evals, evecs = np.linalg.eigh(A)
    c = evecs.T @ u
    block = np.flatnonzero(np.abs(c) > _ONES_OVERLAP_TOL)
    a = c[block] / np.linalg.norm(c[block])
    p = int(np.argmax(np.abs(a)))
    w = a.copy()
    w[p] += math.copysign(1.0, a[p])
    # Q a = -sign(a_p) e_p, so column p of evecs[:, block] @ Q is -sign(a_p) u
    Q = np.eye(len(a)) - np.outer(w, w) * (2.0 / float(w @ w))
    evals[block] = np.einsum("ik,i,ik->k", Q, evals[block], Q)
    evecs[:, block] = evecs[:, block] @ Q
    keep = np.delete(np.arange(n), block[p])
    keep = keep[np.argsort(evals[keep], kind="stable")]
    evals = evals[keep]
    evecs = evecs[:, keep]
    res = np.linalg.norm(A @ evecs - evecs * evals, axis=0)
    return Spectrum(
        eigenvalues=evals,
        eigenvectors=evecs,
        residual_norms=res,
        converged=np.ones(len(evals), dtype=bool),
    )


def estimate_largest_eigenvalue(op: SymmetricOperator, seed: int = 0, iterations: int = 20) -> float:
    """Power-method estimate of the largest eigenvalue.

    A first sweep on the operator itself estimates the dominant magnitude;
    a second sweep on the operator shifted by that magnitude resolves the
    algebraically largest eigenvalue even when negative eigenvalues dominate.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF, 0x9E37]))
    x = rng.uniform(-1.0, 1.0, size=op.n)
    x /= np.linalg.norm(x)
    sigma = 1.0
    for _ in range(iterations):
        y = op.matmat(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        sigma = ny
        x = y / ny
    x = rng.uniform(-1.0, 1.0, size=op.n)
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(iterations):
        y = op.matmat(x) + sigma * x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return -sigma
        rho = float(x @ y)
        x = y / ny
    return rho - sigma


def jacobi_preconditioner(op: SymmetricOperator) -> np.ndarray:
    """The diagonal of T = diag(A - sigma I)^-1, sigma the Gershgorin lower bound.

    Since a_ii - sigma >= r_i >= 0, T is positive for both Laplacian kinds
    without a parameter: sigma = 0 and T = 1/D-bar for the signed kind, and
    sigma < 0 for the standard kind with a negative edge.  LOBPCG accepts
    any symmetric positive definite preconditioner, even for an indefinite
    operator (Knyazev, SISC 2001).  An isolated vertex with sigma = 0 has
    a_ii - sigma = 0; its entry is 1.
    """
    shifted = op.diagonal - op.gershgorin_lower
    shifted[shifted <= 0.0] = 1.0
    return 1.0 / shifted


def _orthonormalize(V: np.ndarray, guard: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of V's columns, orthogonal to an orthonormal guard.

    Two passes of Cholesky-QR (CholQR2).  Each pass projects V off the
    guard, factors the column-scaled Gram matrix ``D^-1 V^T V D^-1 = L L^T``
    (D holding the column norms) and takes ``V D^-1 L^-T``.  Since
    ``diag(L) * D`` is ``|diag R|`` of ``V = QR``, a column is dropped
    exactly when QR would drop it: at or below ``_QR_DROP_TOL`` times the
    largest.  A pass falls back to ``np.linalg.qr`` when the factorization
    fails or a diagonal entry of L is at most ``_CHOL_MIN_DIAG``, where
    rounding in the Gram matrix could decide the drop.
    """
    for _ in range(2):
        if guard is not None:
            V = V - guard @ (guard.T @ V)
        G = V.T @ V
        norms = np.sqrt(np.diagonal(G))
        if not 0.0 < norms.max(initial=0.0) < math.inf:
            return V[:, :0]
        d = np.zeros(1)  # stays when there is no usable factor: QR decides
        if norms.min() > 0.0:
            try:
                L = np.linalg.cholesky(G / np.outer(norms, norms))
                d = np.diagonal(L)
            except np.linalg.LinAlgError:
                pass
        if d.min() > _CHOL_MIN_DIAG:
            diag = d * norms
            T = np.linalg.inv(L).T / norms[:, None]
            V = V @ T[:, diag > _QR_DROP_TOL * diag.max()]
        else:
            Q, R = np.linalg.qr(V)
            diag = np.abs(np.diagonal(R))
            V = Q[:, diag > _QR_DROP_TOL * diag.max()]
    return V


def _require_ones_null(op: SymmetricOperator, Au: np.ndarray) -> None:
    """Raise ``ValueError`` unless the image ``Au`` of the unit ones vector is rounding.

    Deflating ones is sound only when ones is an eigenvector, here of
    eigenvalue 0 as for every standard Laplacian: ``||A u||`` must be at
    most ``_ONES_RESIDUAL_REL`` times the operator's largest absolute row sum.
    """
    drift = float(np.linalg.norm(Au))
    if drift > _ONES_RESIDUAL_REL * max(1.0, op.norm_inf):
        raise ValueError(
            f"ones is not an eigenvector of the operator (|A u| = {drift:.3e}); "
            "it cannot be deflated"
        )


def lobpcg_smallest(op: SymmetricOperator, cfg: SolverConfig) -> tuple[Spectrum, IterationTrace]:
    """Iteratively compute the k smallest eigenpairs of a symmetric operator.

    Each iteration performs a Rayleigh-Ritz projection onto the span of the
    current block X, the residual block W and the previous search
    directions P, and applies the operator once, to W.  Converged leading
    columns are locked.  Not converging within ``max_iter`` is not an
    error: the returned spectrum carries per-column converged flags.

    The basis [X, P, W] stays orthonormal without re-projecting X or P.  W
    is orthonormalized against [ones, X, P] by CholQR2 with QR's drop rule
    (see ``_orthonormalize``).  The Ritz coefficients Zk give the new X and
    AX.  P spans what the new Ritz vectors gained over the old X (Hetmaniuk
    & Lehoucq, 2006); its coefficients are an orthonormal basis of that
    gain within the complement of Zk, from an SVD in the small projected
    space (Duersch, Shao, Yang & Gu, 2018).  So P and AP come from the same
    two block products as X and AX, and no normalization of a cancelled
    n-vector can amplify the rounding in the implicit AP.  The blocks live
    in column ranges of two preallocated buffers, one written while the
    other is read.

    With ``precondition`` W starts from T R instead of R, T the diagonal of
    ``jacobi_preconditioner``; the projection against [ones, X, P] keeps W
    orthogonal to ones.  With ``deflate_ones`` the ones vector guards the
    basis, and an operator that moves ones raises ``ValueError`` before the
    first iteration.
    """
    n = op.n
    m = cfg.effective_block_size
    if m > n - 1:
        raise ValueError(f"block_size {m} too large for operator dimension {n}")
    rng = np.random.default_rng(cfg.seed)
    X = rng.uniform(-1.0, 1.0, size=(n, m))
    # column layout of both buffers: [ones (c) | X (m) | P (np_) | W (nw)]
    c = int(cfg.deflate_ones)
    V = np.empty((n, c + 3 * m), order="F")
    V[:, :c] = 1.0 / math.sqrt(n)
    X = _orthonormalize(X, guard=V[:, :c] if c else None)
    if X.shape[1] < m:
        raise BasisDegenerateError("random initial block lost rank")
    V[:, c : c + m] = X
    AV = np.empty_like(V)
    AV[:, : c + m] = op.matmat(V[:, : c + m])
    if c:
        _require_ones_null(op, AV[:, 0])
    theta, Z = np.linalg.eigh(X.T @ AV[:, c : c + m])
    V[:, c : c + m] = X @ Z
    AV[:, c : c + m] = AV[:, c : c + m] @ Z
    V2, AV2 = V.copy(order="F"), AV.copy(order="F")
    R = np.empty((n, m), order="F")
    T = jacobi_preconditioner(op)[:, None] if cfg.precondition else None
    np_ = 0
    trace = IterationTrace()
    nlock = 0
    for _ in range(cfg.max_iter):
        np.multiply(V[:, c : c + m], theta, out=R)
        np.subtract(AV[:, c : c + m], R, out=R)
        resnorms = np.sqrt(np.einsum("ij,ij->j", R, R))
        trace.ritz_values.append(theta.copy())
        trace.max_residuals.append(float(resnorms[: cfg.k].max()))
        conv = resnorms <= cfg.tol * np.maximum(1.0, np.abs(theta))
        if conv[: cfg.k].all():
            break
        prefix = 0
        while prefix < m and conv[prefix]:
            prefix += 1
        nlock = max(nlock, min(prefix, m - 1))
        na = m - nlock
        x0, w0 = c + nlock, c + m + np_
        W = R[:, nlock:] if T is None else T * R[:, nlock:]
        W = _orthonormalize(W, guard=V[:, :w0])
        nw = W.shape[1]
        if nw == 0:
            raise BasisDegenerateError(
                "residual block vanished before reaching the tolerance"
            )
        V[:, w0 : w0 + nw] = W
        AV[:, w0 : w0 + nw] = op.matmat(W)
        S, AS = V[:, x0 : w0 + nw], AV[:, x0 : w0 + nw]
        ritz, Z = np.linalg.eigh(S.T @ AS)
        # P's coefficients: an orthonormal basis, within the complement of
        # Zk, of the components of the new Ritz vectors outside the old X
        U, sv, _ = np.linalg.svd(Z[na:, na:].T @ Z[na:, :na], full_matrices=False)
        U = U[:, sv > _QR_DROP_TOL * sv.max(initial=0.0)]
        np_ = U.shape[1]
        coef = np.concatenate((Z[:, :na], Z[:, na:] @ U), axis=1)
        np.matmul(S, coef, out=V2[:, x0 : c + m + np_])
        np.matmul(AS, coef, out=AV2[:, x0 : c + m + np_])
        if nlock:
            V2[:, c:x0] = V[:, c:x0]
            AV2[:, c:x0] = AV[:, c:x0]
        V, V2, AV, AV2 = V2, V, AV2, AV
        theta[nlock:] = ritz[:na]
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    X = V[:, c : c + m][:, order]
    R = op.matmat(X) - X * theta
    residuals = np.sqrt(np.einsum("ij,ij->j", R, R))
    converged = residuals <= cfg.tol * np.maximum(1.0, np.abs(theta))
    spectrum = Spectrum(
        eigenvalues=theta[: cfg.k].copy(),
        eigenvectors=X[:, : cfg.k].copy(),
        residual_norms=residuals[: cfg.k].copy(),
        converged=converged[: cfg.k].copy(),
    )
    return spectrum, trace
