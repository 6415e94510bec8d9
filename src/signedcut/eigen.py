"""Eigensolvers for the smallest eigenpairs of a symmetric operator.

Two routes to the smallest eigenpairs of a symmetric operator: a dense one
for n up to the dense threshold, and an iterative locally optimal block
conjugate-gradient solver that needs only matvec products, optionally
preconditioned by a Jacobi diagonal or by a V-cycle over graphs contracted
from the operator's own.  The dense route comes in two forms: the full
eigenbasis from ``numpy.linalg.eigh`` (``dense_spectrum``,
``dense_spectrum_deflated``), and every eigenvalue from
``numpy.linalg.eigvalsh`` with single eigenvectors from shifted solves
(``DenseEigenproblem``), which is all a Fiedler pair needs.  Both deflate
the ones vector the same way, by a Householder reflector
(``_ones_complement``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BasisDegenerateError
from .graph import DegreeMode, SignedGraph, degrees, graph_from_arrays
from .laplacian import SymmetricOperator

# A basis column is dropped when its |diag R| is at most this times the largest.
_QR_DROP_TOL = 1e-8

# Below this, a diagonal entry of a column-scaled Cholesky factor is too close
# to its own rounding (about sqrt(eps)) to decide a drop; QR decides instead.
_CHOL_MIN_DIAG = 1e-5

# The deflation requires |A u| <= this times the largest absolute row sum.
_ONES_RESIDUAL_REL = 1e-10

# ``DenseEigenproblem``.  A second shifted solve is taken when the first
# leaves a residual above _DENSE_RESIDUAL_REL times max(1, ||A||_inf).  An
# exactly singular shift moves down by _NUDGE_ULPS**t ulps of ||A||_inf on
# retry t, for up to _NUDGE_TRIES retries.  The rank-2 update that deflates
# ones (``_ones_complement``) runs over blocks of _UPDATE_ROWS rows.
_DENSE_RESIDUAL_REL = 1e-10
_NUDGE_ULPS = 4
_NUDGE_TRIES = 8
_UPDATE_ROWS = 64

# Multilevel preconditioner.  An edge is strong when |w_ij| is at least
# _STRONG_EDGE times min(r_i, r_j), r the Gershgorin radii.  A pairing counts
# only when it leaves at most _MAX_SHRINK of the vertices.  Each level
# contracts up to _PAIRINGS_PER_LEVEL pairings, so its aggregates have up
# to 2**_PAIRINGS_PER_LEVEL vertices, and levels are built until at most
# _COARSE_MAX vertices are left, which are solved densely.  The shift sigma
# that keeps the preconditioned matrix definite is the mean radius times
# _SHIFT_REL, or times _SHIFT_REL_SIGNED where the signed Laplacian stands
# in for a standard operator (see ``multilevel_preconditioner``).  The
# V-cycle smooths with Jacobi damped by _SMOOTH_WEIGHT.
_STRONG_EDGE = 0.3
_MAX_SHRINK = 0.75
_PAIRINGS_PER_LEVEL = 3
_COARSE_MAX = 200
_SHIFT_REL = 1e-5
_SHIFT_REL_SIGNED = 1e-3
_SMOOTH_WEIGHT = 0.6


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with column-orthonormal eigenvectors.

    ``eigenvectors`` may hold fewer columns than there are eigenvalues: the
    leading ones, as the dense Fiedler route computes one or two.  Only the
    iterative solver fills ``residual_norms`` and ``converged``; the dense
    routes leave them ``None``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SolverConfig:
    """Configuration for the iterative block solver.

    ``k`` is the number of wanted pairs, the smallest ones: the solve stops
    when they have converged.  The block may hold more columns.  ``tol``
    is an absolute residual tolerance scaled per column by
    max(1, |ritz value|).  ``deflate_ones`` keeps every iterate orthogonal
    to the all-ones vector, excluding the trivial constant eigenvector of a
    standard Laplacian from the search space.  ``precondition`` applies a
    preconditioner to the residual block: the multilevel V-cycle
    (``multilevel_preconditioner``) where the operator's graph coarsens
    along strong edges, else the Gershgorin-shifted Jacobi diagonal
    (``jacobi_preconditioner``).
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
    evals, evecs = np.linalg.eigh(op.dense())
    return Spectrum(eigenvalues=evals, eigenvectors=evecs)


def dense_spectrum_deflated(op: SymmetricOperator) -> Spectrum:
    """Dense spectrum restricted to the complement of the ones vector.

    One ``eigh`` of the ones-complement M (see ``_ones_complement``) gives
    the n-1 pairs; a vector y of M comes back as ``H [0; y]``.  The ones
    vector must be an eigenvector of the operator, as it is for every
    standard Laplacian; an operator that moves it by more than rounding
    raises ``ValueError``.
    """
    M, w, beta = _ones_complement(op)
    evals, Y = np.linalg.eigh(M)
    return Spectrum(eigenvalues=evals, eigenvectors=_from_complement(w, beta, Y))


def _ones_complement(op: SymmetricOperator) -> tuple[np.ndarray, np.ndarray, float]:
    """``(M, w, beta)``: the operator on the complement of the ones vector.

    The ones vector must be an eigenvector of eigenvalue 0: an operator
    with ``||A u||`` above ``_ONES_RESIDUAL_REL`` times its largest absolute
    row sum, u = ones/sqrt(n), raises ``ValueError``.  H = I - beta w w^T is
    the Householder reflector that maps u to -e_0, so H A H has row and
    column 0 zero up to rounding, and M is ``(H A H)[1:, 1:]``, a view of
    A minus a rank-2 update, formed in place in O(n^2).
    """
    A = op.dense()
    n = op.n
    u = np.full(n, 1.0 / math.sqrt(n))
    _require_ones_null(op, A @ u)
    w = u.copy()
    w[0] += 1.0
    beta = 2.0 / float(w @ w)
    # H A H = A - w q^T - q w^T, p = beta A w, q = p - (beta w^T p / 2) w; by
    # row blocks, which keeps the temporaries small and the result exactly
    # symmetric (w_i q_j + q_i w_j sums the same two products)
    p = beta * (A @ w)
    q = p - (0.5 * beta * float(w @ p)) * w
    for r in range(0, n, _UPDATE_ROWS):
        rows = slice(r, r + _UPDATE_ROWS)
        A[rows] -= np.outer(w[rows], q) + np.outer(q[rows], w)
    return A[1:, 1:], w, beta


def _from_complement(w: np.ndarray, beta: float, Y: np.ndarray) -> np.ndarray:
    """``H [0; Y]``: vectors of the ones-complement as n-vectors, orthogonal to ones."""
    X = np.concatenate((np.zeros((1,) + Y.shape[1:]), Y))
    return X - beta * np.multiply.outer(w, w[1:] @ Y)


class DenseEigenproblem:
    """Every eigenvalue of a dense operator, and eigenvectors one at a time.

    ``eigenvalues`` are ascending, from one ``eigvalsh`` of the matrix M:
    the operator, or with ``deflate_ones`` its ones-complement (see
    ``_ones_complement``), whose n-1 eigenvalues come out already deflated.
    ``vector(i)`` is the eigenvector of ``eigenvalues[i]`` from inverse
    iteration: one solve of ``(M - lambda I) x = b`` from a fixed seeded
    start, and a second from x when the residual ``||M x - lambda x||`` is
    above ``_DENSE_RESIDUAL_REL`` times max(1, ``||A||_inf``) (Ipsen, SIAM
    Review 1997).  An exactly singular shift is moved down by a few ulps of
    ``||A||_inf`` and the solve retried.  The solves run on M scaled by a
    power of two, exactly, so that they work at any weight scale.  A
    vector of the ones-complement is returned as ``H [0; x]``, orthogonal
    to ones by construction.  A component at or below ``n * eps`` times the
    largest is rounding and is set to exactly 0, so that a zero policy, not
    rounding, places it.
    """

    def __init__(self, op: SymmetricOperator, deflate_ones: bool = False):
        if deflate_ones:
            A, self._w, self._beta = _ones_complement(op)
        else:
            A, self._w = op.dense(), None
        # a power of two brings ||A||_inf into [1/2, 1) without rounding, so
        # that the shifted solves neither overflow nor underflow at any scale
        self._unit = 2.0 ** -math.frexp(op.norm_inf)[1]
        A *= self._unit
        self._matrix = A
        self._limit = _DENSE_RESIDUAL_REL * max(1.0, op.norm_inf) * self._unit
        self.eigenvalues = np.linalg.eigvalsh(A) / self._unit

    def vector(self, i: int, orthogonal_to: Optional[np.ndarray] = None) -> np.ndarray:
        """Unit eigenvector of ``eigenvalues[i]``, projected off a unit vector if given."""
        A, lam = self._matrix, float(self.eigenvalues[i]) * self._unit
        x = np.random.default_rng(0).uniform(-1.0, 1.0, size=A.shape[0])
        for _ in range(2):
            x = self._shifted_solve(lam, x)
            x /= np.linalg.norm(x)
            if np.linalg.norm(A @ x - lam * x) <= self._limit:
                break
        if self._w is not None:
            x = _from_complement(self._w, self._beta, x)
        if orthogonal_to is not None:
            x -= float(orthogonal_to @ x) * orthogonal_to
        x /= np.linalg.norm(x)
        x[np.abs(x) <= len(x) * np.finfo(float).eps * np.abs(x).max()] = 0.0
        return x / np.linalg.norm(x)

    def _shifted_solve(self, lam: float, b: np.ndarray) -> np.ndarray:
        """Solve ``(M - sigma I) x = b``, sigma = lam or, if singular there, just below.

        x comes back with largest component 1.
        """
        A = self._matrix
        diag = A.diagonal().copy()
        try:
            for t in range(_NUDGE_TRIES + 1):
                shift = lam - (_NUDGE_ULPS**t * np.finfo(float).eps if t else 0.0)
                np.fill_diagonal(A, diag - shift)
                try:
                    x = np.linalg.solve(A, b)
                except np.linalg.LinAlgError:
                    continue
                peak = float(np.abs(x).max())
                if 0.0 < peak < math.inf:
                    return x / peak
        finally:
            np.fill_diagonal(A, diag)
        raise BasisDegenerateError(f"shifted solve at eigenvalue {lam / self._unit!r} stayed singular")


def estimate_largest_eigenvalue(op: SymmetricOperator, seed: int = 0, iterations: int = 20) -> float:
    """Lanczos estimate of the largest eigenvalue.

    ``iterations`` Lanczos steps from a seeded random start, without
    reorthogonalization; the estimate is the largest eigenvalue of the
    tridiagonal matrix, a Ritz value, so it exceeds the true one by at most
    rounding.  A step whose residual vanishes has found an invariant
    subspace and ends the run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF, 0x9E37]))
    q = rng.uniform(-1.0, 1.0, size=op.n)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(op.n)
    alpha, beta = [], [0.0]
    for _ in range(iterations):
        y = op.matmat(q)
        alpha.append(float(q @ y))
        y -= alpha[-1] * q + beta[-1] * q_prev
        b = float(np.linalg.norm(y))
        if b == 0.0:
            break
        beta.append(b)
        q_prev, q = q, y / b
    k = len(alpha)
    T = np.diag(alpha) + np.diag(beta[1:k], 1) + np.diag(beta[1:k], -1)
    return float(np.linalg.eigvalsh(T)[-1])


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


@dataclass(frozen=True, eq=False)
class Level:
    """One level of a multilevel hierarchy.

    Its matrix M is the operator ``op``, ``diag(r + excess) - W`` of the
    level's graph: r the absolute row sums of W and the excess
    non-negative, so M is a signed Laplacian plus a diagonal.  Every level
    but the last aggregates its vertices into the next one: vertex i maps
    to coarse vertex ``agg[i]`` with the entry ``sign[i]`` of the
    prolongation P, and the next level's matrix is ``P^T M P``.
    """

    op: SymmetricOperator
    agg: Optional[np.ndarray] = None
    sign: Optional[np.ndarray] = None


class MultilevelPreconditioner:
    """Symmetric V(1,1)-cycle for the inverse of the finest level's matrix.

    Each level pre- and post-smooths with damped Jacobi around a correction
    from the next level; the last level is solved densely, so a hierarchy
    of one level is the exact inverse.  Every level's matrix is one
    ``SymmetricOperator``, a signed Laplacian plus a positive diagonal, so
    it is positive definite, and so is the cycle: LOBPCG accepts it for
    either Laplacian kind, even for an indefinite operator (Knyazev, SISC
    2001).
    """

    def __init__(self, levels: list[Level]):
        self.levels = levels
        inv = np.linalg.inv(levels[-1].op.dense())
        self._coarse_inv = (inv + inv.T) / 2.0
        self._smoothers = [(_SMOOTH_WEIGHT / lv.op.diagonal)[:, None] for lv in levels[:-1]]
        self._members = [_members(lv.agg) for lv in levels[:-1]]

    def __call__(self, R: np.ndarray) -> np.ndarray:
        return self._cycle(0, np.ascontiguousarray(R))

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        if depth == len(self.levels) - 1:
            return self._coarse_inv @ b
        lv, smooth, members = self.levels[depth], self._smoothers[depth], self._members[depth]
        n, k = b.shape
        x = smooth * b
        # P^T r: signed residual rows gathered by aggregate, row n padding with 0
        r = np.zeros((n + 1, k))
        np.multiply(b - lv.op.matmat(x), lv.sign[:, None], out=r[:n])
        rc = np.take(r, members.ravel(), axis=0).reshape(*members.shape, k).sum(axis=0)
        x += lv.sign[:, None] * np.take(self._cycle(depth + 1, rc), lv.agg, axis=0)
        x += smooth * (b - lv.op.matmat(x))
        return x


def multilevel_preconditioner(op: SymmetricOperator, k: int) -> Optional[MultilevelPreconditioner]:
    """The V-cycle of the operator's graph, or None where it does not coarsen.

    The matrix the cycle approximates the inverse of is ``A - sigma_G I +
    sigma I``, with ``sigma_G`` the Gershgorin lower bound: the operator
    ``diag(r + excess) - W`` of A's graph, r the radii, a signed Laplacian
    plus the non-negative diagonal ``excess = d - r - sigma_G + sigma``,
    whose diagonal is Jacobi's (``jacobi_preconditioner``).  For the
    signed kind, and for a graph without negative edges, that is the signed
    Laplacian plus ``sigma I``.

    ``k`` is the number of wanted pairs (``SolverConfig.k``), not the block
    size.  The exception is a standard operator with fewer negative edges
    than the k wanted pairs: each negative edge adds one rank-one negative
    term to the Laplacian of the positive edges, so at least one wanted
    pair is a non-negative, smooth mode, which the shift to ``sigma_G = -2
    max_i d-_i`` would blur.  There the matrix is the signed Laplacian plus
    ``sigma I``, which differs from A only at the ends of the negative
    edges, with the larger ``_SHIFT_REL_SIGNED``: that matrix is no shift of
    A, so a smaller sigma does not bring the cycle nearer A's
    shift-and-invert, and on the 3000-mass string it cost about four times
    the iterations.  A Fiedler solve wants one pair and never takes this
    branch; ``spectrum --k 2 --deflate-ones`` on a string with one negative
    edge does.

    Vertices pair along strong edges (see ``_pair``); a partner takes the
    sign of its edge, so the Galerkin matrix ``P^T (L + E) P`` of a signed
    Laplacian L plus a diagonal E is again a signed Laplacian, of the
    contracted graph with parallel edges summed, plus a diagonal (see
    ``_contract``): every level is ``diag(r + excess) - W`` of its own
    graph, with its own radii r and excess.  None when the graph's first
    pairing leaves more than ``_MAX_SHRINK`` of its vertices (random
    graphs, whose edges are rarely strong), or when a later level's first
    pairing does before ``_COARSE_MAX`` vertices are left.
    """
    g = op.graph
    scale = float(op.radii.mean())
    # d_i = r_i on every vertex unless the operator is a standard Laplacian
    # with a negative edge; then d_i - r_i = -2 d-_i
    negative_edges = 0 if np.array_equal(op.diagonal, op.radii) else int((g.edge_arrays()[2] < 0).sum())
    if 0 < negative_edges < k:
        excess = np.full(g.n, _SHIFT_REL_SIGNED * scale)
    else:
        excess = op.diagonal - op.radii - op.gershgorin_lower + _SHIFT_REL * scale
    levels = []
    while True:
        pairing = _pair(g)
        if pairing is None:
            return None
        level_op = SymmetricOperator(g, degrees(g, DegreeMode.ABSOLUTE_SUM) + excess)
        if g.n <= _COARSE_MAX:
            levels.append(Level(level_op))
            return MultilevelPreconditioner(levels)
        coarse, coarse_excess = g, excess
        agg, sign = np.arange(g.n), np.ones(g.n)
        for _ in range(_PAIRINGS_PER_LEVEL):
            pair_agg, pair_sign = pairing
            coarse, coarse_excess = _contract(coarse, coarse_excess, pair_agg, pair_sign)
            sign *= pair_sign[agg]
            agg = pair_agg[agg]
            if coarse.n <= _COARSE_MAX:
                break
            pairing = _pair(coarse)
            if pairing is None:
                break
        levels.append(Level(level_op, agg, sign))
        g, excess = coarse, coarse_excess


def _pair(g: SignedGraph) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Pair vertices along strong edges; None when too few vertices pair.

    Rounds of locally dominant matching: among the strong edges whose ends
    are both unpaired, each edge that ranks first at both of its ends pairs
    them, ranked by |w| with ties broken by a fixed pseudo-random order.
    Rounds repeat until no such edge is left, so the pairing is maximal.
    Returns ``(agg, sign)`` as in :class:`Level`: a pair's lower vertex
    has sign +1 and its partner the sign of their edge.
    """
    n = g.n
    ii, jj, ww = g.edge_arrays()
    a = np.abs(ww)
    radii = degrees(g, DegreeMode.ABSOLUTE_SUM)
    e = np.flatnonzero(a >= _STRONG_EDGE * np.minimum(radii[ii], radii[jj]))
    if n - len(e) > _MAX_SHRINK * n:  # each pair removes one vertex
        return None
    rank = np.empty(len(e))
    tiebreak = np.random.default_rng(0).random(len(e))
    rank[np.lexsort((tiebreak, a[e]))] = np.arange(len(e))
    mate = np.full(n, -1)
    sign = np.ones(n)
    while len(e):
        best = np.full(n, -1.0)
        np.maximum.at(best, ii[e], rank)
        np.maximum.at(best, jj[e], rank)
        d = e[(best[ii[e]] == rank) & (best[jj[e]] == rank)]
        mate[ii[d]] = jj[d]
        mate[jj[d]] = ii[d]
        sign[jj[d]] = np.sign(ww[d])
        free = (mate[ii[e]] < 0) & (mate[jj[e]] < 0)
        e, rank = e[free], rank[free]
    root = (mate < 0) | (np.arange(n) < mate)
    if root.sum() > _MAX_SHRINK * n:
        return None
    agg = np.cumsum(root) - 1
    partner = np.flatnonzero(~root)
    agg[partner] = agg[mate[partner]]
    return agg, sign


def _contract(g: SignedGraph, excess: np.ndarray, agg: np.ndarray,
              sign: np.ndarray) -> tuple[SignedGraph, np.ndarray]:
    """The graph and diagonal excess of ``P^T (L + diag(excess)) P``.

    An edge inside an aggregate is the one that paired it, and P cancels
    it.  Parallel edges between two aggregates are summed; as signed
    Laplacian terms they add ``sum |w| - |sum w|`` to the diagonal at both
    ends, which is non-negative and nonzero only where signs cancel.
    """
    nc = int(agg.max()) + 1
    ii, jj, ww = g.edge_arrays()
    ci, cj = agg[ii], agg[jj]
    cross = ci != cj
    ci, cj = ci[cross], cj[cross]
    w = (ww * sign[ii] * sign[jj])[cross]
    keys, inverse = np.unique(np.minimum(ci, cj) * nc + np.maximum(ci, cj), return_inverse=True)
    total = np.bincount(inverse, w, minlength=len(keys))
    cancelled = np.bincount(inverse, np.abs(w), minlength=len(keys)) - np.abs(total)
    lo, hi = keys // nc, keys % nc
    coarse_excess = (np.bincount(agg, excess, minlength=nc)
                     + np.bincount(lo, cancelled, minlength=nc)
                     + np.bincount(hi, cancelled, minlength=nc))
    keep = total != 0.0
    return graph_from_arrays(nc, lo[keep], hi[keep], total[keep]), coarse_excess


def _members(agg: np.ndarray) -> np.ndarray:
    """Column c lists the vertices of aggregate c, padded with len(agg)."""
    n = len(agg)
    order = np.argsort(agg, kind="stable")
    counts = np.bincount(agg)
    position = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    members = np.full((counts.max(), len(counts)), n)
    members[position, agg[order]] = order
    return members


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


def _preconditioner(op: SymmetricOperator, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The multilevel V-cycle where the graph coarsens, else Jacobi ``T R``."""
    cycle = multilevel_preconditioner(op, k)
    if cycle is not None:
        return cycle
    T = jacobi_preconditioner(op)[:, None]
    return lambda R: T * R


def _require_ones_null(op: SymmetricOperator, Au: np.ndarray) -> None:
    """Raise ``ValueError`` unless the image ``Au`` of the unit ones vector is rounding.

    Deflating ones is sound only when ones is an eigenvector, here of
    eigenvalue 0 as for every standard Laplacian: ``||A u||`` must be at
    most ``_ONES_RESIDUAL_REL`` times the operator's largest absolute row sum.
    """
    scale = max(1.0, op.norm_inf)
    drift = float(np.linalg.norm(Au / scale)) * scale  # the squares of Au may overflow
    if drift > _ONES_RESIDUAL_REL * scale:
        raise ValueError(
            f"ones is not an eigenvector of the operator (|A u| = {drift:.3e}); "
            "it cannot be deflated"
        )


def lobpcg_smallest(op: SymmetricOperator, cfg: SolverConfig) -> tuple[Spectrum, IterationTrace]:
    """Iteratively compute the k smallest eigenpairs of a symmetric operator.

    Each iteration performs a Rayleigh-Ritz projection onto the span of the
    current block X, the residual block W and the previous search
    directions P, and applies the operator once, to W.  The stopping test
    covers the k wanted columns only, and converged leading columns among
    them are locked.  The returned spectrum holds the whole block's m Ritz
    pairs in ascending order, the wanted ones first, each with its final
    residual norm and converged flag.  A Ritz value is at least the
    eigenvalue of its rank, so an unconverged column past the k-th still
    bounds its eigenvalue from above.  Not converging within ``max_iter``
    is not an error.

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

    With ``precondition`` W starts from B R instead of R: B is the V-cycle
    of ``multilevel_preconditioner`` when it builds one, else the diagonal T
    of ``jacobi_preconditioner``.  The projection against [ones, X, P]
    keeps W orthogonal to ones.  With ``deflate_ones`` the ones vector guards the
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
    precondition = _preconditioner(op, cfg.k) if cfg.precondition else None
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
        W = R[:, nlock:] if precondition is None else precondition(R[:, nlock:])
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
        eigenvalues=theta, eigenvectors=X, residual_norms=residuals, converged=converged
    )
    return spectrum, trace
