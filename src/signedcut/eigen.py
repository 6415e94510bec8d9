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

_QR_DROP_TOL = 1e-8

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
    standard Laplacian from the search space.
    """

    k: int
    block_size: Optional[int] = None
    tol: float = 1e-8
    max_iter: int = 200
    seed: int = 0
    deflate_ones: bool = False

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
    drift = float(np.linalg.norm(A @ u))
    if drift > _ONES_RESIDUAL_REL * max(1.0, float(np.linalg.norm(A, np.inf))):
        raise ValueError(
            f"ones is not an eigenvector of the operator (|A u| = {drift:.3e}); "
            "it cannot be deflated"
        )
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


def _orthonormalize(
    V: np.ndarray, against: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Project V off an orthonormal block (twice), then QR with rank drops.

    Returns the orthonormal result and a flag telling whether any column
    was lost to rank deficiency.
    """
    if V.shape[1] == 0:
        return V, False
    if against is not None and against.shape[1]:
        V = V - against @ (against.T @ V)
        V = V - against @ (against.T @ V)
    norms = np.linalg.norm(V, axis=0)
    scale = norms.max()
    if not np.isfinite(scale) or scale == 0.0:
        return V[:, :0], True
    Q, R = np.linalg.qr(V)
    diag = np.abs(np.diag(R))
    keep = diag > _QR_DROP_TOL * diag.max()
    return Q[:, keep], bool((~keep).any())


def lobpcg_smallest(op: SymmetricOperator, cfg: SolverConfig) -> tuple[Spectrum, IterationTrace]:
    """Iteratively compute the k smallest eigenpairs of a symmetric operator.

    Each iteration performs a Rayleigh-Ritz projection onto the span of the
    current block, the residual block, and the previous search directions,
    orthonormalizing the basis first.  On rank loss the direction block is
    dropped for that iteration; converged leading columns are locked.  Not
    converging within ``max_iter`` is not an error: the returned spectrum
    carries per-column converged flags.
    """
    n = op.n
    m = cfg.effective_block_size
    if m > n - 1:
        raise ValueError(f"block_size {m} too large for operator dimension {n}")
    rng = np.random.default_rng(cfg.seed)
    X = rng.uniform(-1.0, 1.0, size=(n, m))
    C = np.ones((n, 1)) / math.sqrt(n) if cfg.deflate_ones else None
    X, _ = _orthonormalize(X, against=C)
    if X.shape[1] < m:
        raise BasisDegenerateError("random initial block lost rank")
    AX = op.matmat(X)
    H = X.T @ AX
    H = (H + H.T) / 2.0
    theta, Z = np.linalg.eigh(H)
    X = X @ Z
    AX = AX @ Z
    P: np.ndarray | None = None
    trace = IterationTrace()
    nlock = 0
    for _ in range(cfg.max_iter):
        R = AX - X * theta
        resnorms = np.linalg.norm(R, axis=0)
        trace.ritz_values.append(theta.copy())
        trace.max_residuals.append(float(resnorms[: cfg.k].max()))
        conv = resnorms <= cfg.tol * np.maximum(1.0, np.abs(theta))
        if conv[: cfg.k].all():
            break
        prefix = 0
        while prefix < m and conv[prefix]:
            prefix += 1
        nlock = max(nlock, min(prefix, m - 1))
        active = slice(nlock, m)
        n_active = m - nlock
        guard = np.hstack([b for b in (C, X) if b is not None])
        W, _ = _orthonormalize(R[:, active], against=guard)
        if W.shape[1] == 0:
            raise BasisDegenerateError(
                "residual block vanished before reaching the tolerance"
            )
        AW = op.matmat(W)
        S = np.hstack([X[:, active], W])
        AS = np.hstack([AX[:, active], AW])
        if P is not None and P.shape[1]:
            Pq, lost = _orthonormalize(P, against=np.hstack([guard, W]))
            if not lost and Pq.shape[1]:
                S = np.hstack([S, Pq])
                AS = np.hstack([AS, op.matmat(Pq)])
        H = S.T @ AS
        H = (H + H.T) / 2.0
        ritz, Z = np.linalg.eigh(H)
        Zk = Z[:, :n_active]
        Xn = S @ Zk
        AXn = AS @ Zk
        P = S[:, n_active:] @ Zk[n_active:, :]
        pnorm = np.linalg.norm(P, axis=0)
        ok = (pnorm > 0.0) & np.isfinite(pnorm)
        P = P[:, ok] / pnorm[ok]
        X = np.hstack([X[:, :nlock], Xn])
        AX = np.hstack([AX[:, :nlock], AXn])
        theta = np.concatenate([theta[:nlock], ritz[:n_active]])
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    X = X[:, order]
    AX = op.matmat(X)
    residuals = np.linalg.norm(AX - X * theta, axis=0)
    converged = residuals <= cfg.tol * np.maximum(1.0, np.abs(theta))
    spectrum = Spectrum(
        eigenvalues=theta[: cfg.k].copy(),
        eigenvectors=X[:, : cfg.k].copy(),
        residual_norms=residuals[: cfg.k].copy(),
        converged=converged[: cfg.k].copy(),
    )
    return spectrum, trace
