"""Eigensolvers for the smallest eigenpairs of a symmetric operator.

Two routes to the smallest eigenpairs of a symmetric operator: a dense one
for n up to the dense threshold, and an iterative locally optimal block
conjugate-gradient solver that needs only matvec products, optionally
preconditioned by a Jacobi diagonal or by a V-cycle over graphs contracted
from the operator's own.  Its unpreconditioned single-vector form also
runs for many start seeds on several operators of one n at once, as
independent columns in lock step that share every step but each
operator's block matvec (``lobpcg_lockstep``).  Both stop on one test,
``res <= tol * max(min(1, ||A||_inf), |theta|)`` or at the operator's
rounding level (``_residual_check``), each column at its own operator's
``||A||_inf``.  The dense route, ``DenseEigenproblem``, takes every
eigenvalue from ``numpy.linalg.eigvalsh`` and eigenvectors one at a time
from shifted solves held to one residual limit: the Fiedler pair's one or
two, and up to five modes of ``dense_spectrum``, each orthogonal to those
before it.  So it holds the matrix and one LU copy of it, never an n-by-n
eigenbasis.  More modes, and the full spectrum, come from one
``numpy.linalg.eigh`` of the same matrix.  With ``deflate_ones`` both work
on the ones-complement by a Householder reflector (``_dense_matrix``).
The dense residual limit, and the check that ones is an eigenvector before
it is deflated (``_require_ones_null``, on both routes), are relative to
``||A||_inf`` at every weight scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BasisDegenerateError
from .graph import SignedGraph, degrees, graph_from_arrays
from .laplacian import SymmetricOperator

# A basis column is dropped when its |diag R| is at most this times the largest.
_QR_DROP_TOL = 1e-8

# Below this, a diagonal entry of a column-scaled Cholesky factor is too close
# to its own rounding (about sqrt(eps)) to decide a drop; QR decides instead.
_CHOL_MIN_DIAG = 1e-5

# ``_orthonormalize`` scales V by a power of two when its largest squared
# column norm is outside [1/_GRAM_RANGE, _GRAM_RANGE], so that the Gram
# matrix of every column that QR's drop rule could keep is a normal number.
_GRAM_RANGE = 1e150

# One Cholesky-QR pass is enough when the column-scaled factor's condition
# bound is below this: its loss of orthogonality is O(kappa^2 eps), about
# 2e-14 here (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015).
_ONE_PASS_COND = 10.0

# The deflation requires |A u| <= this times the largest absolute row sum.
_ONES_RESIDUAL_REL = 1e-10

# A residual column of norm at most this times sqrt(n) eps ||A||_inf is at the
# operator's rounding level and counts as converged (``_residual_check``).  On
# the -0.05 strings with n = 75 to 10000, preconditioned solves with a tol no
# residual reaches stalled at 0.04 to 2.7 times sqrt(n) eps ||A||_inf.
_ROUNDING_RESIDUAL = 4.0

# ``DenseEigenproblem``.  Every vector it solves, Fiedler vector or written
# mode, is held to a residual of at most _DENSE_RESIDUAL_REL ||A||_inf.  One
# solve leaves about ||b|| |lambda - sigma| / |b . v|, for the start b and
# the eigenvector v: 1e-14 ||A||_inf for the typical start at n = 1200, but
# 5e-12 ||A||_inf for column 3 of the signed dense-1200 graph of seed 1,
# whose start has |b . v| = 5e-4 (||b|| = 20).  A second solve, taken only
# then, brings either to rounding, as eigh's (Ipsen, SIAM Review 1997).  An
# exactly singular shift moves down by _NUDGE_ULPS**t ulps of ||A||_inf on
# retry t, for up to _NUDGE_TRIES retries.  The rank-2 update that deflates
# ones (``_dense_matrix``) runs over blocks of _UPDATE_ROWS rows.
_DENSE_RESIDUAL_REL = 1e-13
_NUDGE_ULPS = 4
_NUDGE_TRIES = 8
_UPDATE_ROWS = 64

# ``DenseEigenproblem.spectrum`` takes up to this many vectors from shifted
# solves, and more from one ``eigh``.  The solves hold about 2 n^2 doubles,
# ``eigh`` 4 n^2 and more.  Each mode costs one LU, or two where the first
# solve's residual is above _DENSE_RESIDUAL_REL (on the standard dense-1200
# graphs of seeds 1-20, five modes took 5 to 8 solves, 5.95 on average).
# Measured (2 vCPUs, OpenBLAS, random signed graphs, m = 6n, best of 7):
# ``eigvalsh`` plus five solves took 1.23x one ``eigh`` at n = 1200 and
# 1.11-1.16x at n = 2048, plus six 1.33x and 1.25-1.28x; at one BLAS thread
# five took 1.13x and 1.08x.  k = 5 is the only k the benchmark's workloads run;
# above it ``eigh`` is kept, as no workload measures a larger k.
_SHIFTED_SOLVES_MAX = 5

# ``estimate_largest_eigenvalue`` takes this many Lanczos steps at most.
_LANCZOS_STEPS = 20

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
    iterative solver fills ``residual_norms``, ``converged`` and
    ``iterations``, its number of residual tests; the dense routes leave
    them ``None``, ``None`` and 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None
    iterations: int = 0

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SolverConfig:
    """What a caller chooses for the iterative block solver.

    The problem, k wanted pairs and whether ones is deflated, goes to
    ``lobpcg_smallest`` with the operator.  ``block_size`` is the block's
    column count, at least k and at most ``solve_space_dimension``; None
    takes k.  ``tol`` is a finite positive residual tolerance, scaled per
    column by max(min(1, ||A||_inf), |ritz value|), so it is relative at
    every weight scale.  ``precondition`` applies a preconditioner to the
    residual block: the multilevel V-cycle (``multilevel_preconditioner``)
    where the operator's graph coarsens along strong edges, else the
    Gershgorin-shifted Jacobi diagonal (``jacobi_preconditioner``).
    ``seed`` draws the random start block and is >= 0.
    """

    block_size: Optional[int] = None
    tol: float = 1e-8
    max_iter: int = 200
    seed: int = 0
    precondition: bool = False

    def __post_init__(self):
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def solve_space_dimension(n: int, deflate_ones: bool) -> int:
    """The most pairs, or block columns, a solver can hold: n, less one with ones deflated."""
    return n - int(deflate_ones)


def dense_spectrum(op: SymmetricOperator, deflate_ones: bool = False, k: Optional[int] = None) -> Spectrum:
    """``DenseEigenproblem(op, deflate_ones).spectrum(k)`` with only its k smallest eigenvalues; n <= dense threshold."""
    s = DenseEigenproblem(op, deflate_ones).spectrum(k)
    return Spectrum(eigenvalues=s.eigenvalues[:k], eigenvectors=s.eigenvectors)


def _dense_matrix(op: SymmetricOperator, deflate_ones: bool) -> tuple[np.ndarray, Optional[np.ndarray], float]:
    """``(M, w, beta)``: the operator as a fresh dense matrix, or its ones-complement.

    Without ``deflate_ones`` M is ``op.dense()`` and w is None.  With it,
    the ones vector must be an eigenvector of eigenvalue 0: an operator
    with ``||A u||`` above ``_ONES_RESIDUAL_REL`` times its largest absolute
    row sum, u = ones/sqrt(n), raises ``ValueError``.  H = I - beta w w^T is
    the Householder reflector that maps u to -e_0, so H A H has row and
    column 0 zero up to rounding, and M is ``(H A H)[1:, 1:]``, a view of
    A minus a rank-2 update, formed in place in O(n^2).
    """
    A = op.dense()
    if not deflate_ones:
        return A, None, 0.0
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


def _from_complement(w: Optional[np.ndarray], beta: float, Y: np.ndarray) -> np.ndarray:
    """``H [0; Y]``: vectors of the ones-complement as n-vectors, orthogonal to ones; Y itself when w is None."""
    if w is None:
        return Y
    X = np.concatenate((np.zeros((1,) + Y.shape[1:]), Y))
    return X - beta * np.multiply.outer(w, w[1:] @ Y)


def _into_complement(w: Optional[np.ndarray], beta: float, X: np.ndarray) -> np.ndarray:
    """``(H X)[1:]``: undoes ``_from_complement`` on n-vectors orthogonal to ones; X itself when w is None."""
    if w is None:
        return X
    return (X - beta * np.multiply.outer(w, w @ X))[1:]


def _project_off(x: np.ndarray, B: Optional[np.ndarray]) -> np.ndarray:
    """x less its components along the orthonormal columns of B, in two passes."""
    if B is not None:
        for _ in range(2):
            x = x - B @ (B.T @ x)
    return x


class DenseEigenproblem:
    """Every eigenvalue of a dense operator, and its leading eigenvectors.

    M is the operator, or with ``deflate_ones`` its ones-complement (see
    ``_dense_matrix``), held scaled by a power of two, exactly: with a
    relative residual limit, every power-of-two weight scale gives the same
    vectors and exactly scaled eigenvalues.  ``eigenvalues``, ascending,
    come from one ``eigvalsh`` of M on first use.  ``spectrum(k)`` takes
    up to ``_SHIFTED_SOLVES_MAX`` vectors by inverse iteration, each
    eigenvector of ``eigenvalues[i]`` from a solve of ``(M - lambda I) x =
    b`` from a start seeded by i, and a second from x when ``||M x - lambda
    x||`` is above ``_DENSE_RESIDUAL_REL`` times ``||A||_inf``; an exactly
    singular shift is moved down by a few ulps.  More vectors come from one
    ``eigh`` of M.  A vector of the ones-complement
    is returned as ``H [0; x]``, orthogonal to ones by construction, and a
    solved one as computed, unit up to rounding: ``select_fiedler`` sets its
    exact norm, its sign and its exact zeros.
    """

    def __init__(self, op: SymmetricOperator, deflate_ones: bool = False):
        A, self._w, self._beta = _dense_matrix(op, deflate_ones)
        # a power of two brings ||A||_inf into [1/2, 1) without rounding, so
        # that the shifted solves neither overflow nor underflow at any scale
        self._unit = 2.0 ** -math.frexp(op.norm_inf)[1]
        A *= self._unit
        self._matrix = A
        self._limit = _DENSE_RESIDUAL_REL * op.norm_inf * self._unit
        self._vectors = np.empty((op.n, 0))

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._matrix) / self._unit

    def spectrum(self, k: Optional[int]) -> Spectrum:
        """Every eigenvalue and the first k eigenvectors, all for k None or above the solve space.

        Vector i is ``_vector(i)``, solved once and kept; above
        ``_SHIFTED_SOLVES_MAX`` all come from one ``eigh``, with its eigenvalues.
        """
        if k is None or k > _SHIFTED_SOLVES_MAX:
            evals, Y = np.linalg.eigh(self._matrix)
            Y = Y if k is None else Y[:, :k].copy()
            return Spectrum(evals / self._unit, _from_complement(self._w, self._beta, Y))
        k = min(k, self._matrix.shape[0])
        kept = self._vectors.shape[1]
        # one (n, k) block: the solves' BLAS calls round by the layout they read
        self._vectors = np.pad(self._vectors, ((0, 0), (0, max(k - kept, 0))))
        for i in range(kept, k):
            self._vectors[:, i] = self._vector(i)
        return Spectrum(self.eigenvalues, self._vectors[:, :k])

    def _vector(self, i: int) -> np.ndarray:
        """Eigenvector of ``eigenvalues[i]``, of norm 1 up to rounding, orthogonal
        to the kept columns ``_vectors[:, :i]``.

        The start and each solve's result are projected off those columns,
        twice, before the residual is taken, so that a repeated eigenvalue
        yields a new vector of its eigenspace.  Such a column, within the
        residual limit of ``eigenvalues[i - 1]``, always takes the second
        solve: the first can leave a residual near the limit, since the
        columns before took the directions the shift amplifies most.  A
        result that projection leaves at or below ``_QR_DROP_TOL`` of its
        largest component starts the second solve, and after the second
        raises ``BasisDegenerateError``.
        """
        A, lam = self._matrix, float(self.eigenvalues[i]) * self._unit
        B, clustered = None, False
        if i:
            B = _into_complement(self._w, self._beta, self._vectors[:, :i])
            clustered = (self.eigenvalues[i] - self.eigenvalues[i - 1]) * self._unit <= self._limit
        x = _project_off(np.random.default_rng(i).uniform(-1.0, 1.0, size=A.shape[0]), B)
        for attempt in range(2):
            x = _project_off(self._shifted_solve(lam, x), B)
            size = float(np.linalg.norm(x))  # the solve's largest component is 1
            if size == 0.0 or (attempt and size <= _QR_DROP_TOL):
                raise BasisDegenerateError(
                    f"eigenvector {i} at eigenvalue {self.eigenvalues[i]!r} "
                    f"collapsed onto the {B.shape[1]} before it"
                )
            x /= size
            if (size > _QR_DROP_TOL and not clustered
                    and np.linalg.norm(A @ x - lam * x) <= self._limit):
                break
        return _from_complement(self._w, self._beta, x)

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


def estimate_largest_eigenvalue(op: SymmetricOperator, seed: int = 0) -> float:
    """Lanczos estimate of the largest eigenvalue.

    ``_LANCZOS_STEPS`` (20) Lanczos steps from a seeded random start,
    without reorthogonalization; the estimate is the largest eigenvalue of
    the tridiagonal matrix, a Ritz value, so it exceeds the true one by at
    most rounding.  A step whose residual vanishes has found an invariant
    subspace and ends the run early.  Each residual is scaled by a power of
    two, exactly, before its norm is taken, so that every weight scale works.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF, 0x9E37]))
    q = rng.uniform(-1.0, 1.0, size=op.n)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(op.n)
    alpha, beta = [], [0.0]
    for _ in range(_LANCZOS_STEPS):
        y = op.matmat(q)
        alpha.append(float(q @ y))
        y -= alpha[-1] * q + beta[-1] * q_prev
        # scaled by a power of two, exactly, so that the squares cannot overflow
        e = math.frexp(float(np.abs(y).max()))[1]
        b = math.ldexp(float(np.linalg.norm(np.ldexp(y, -e))), e)
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

    def __call__(self, R: np.ndarray) -> np.ndarray:
        # the cycle's products are elementwise or by column, so their bits do
        # not depend on R's layout; the result is C-ordered, as the block
        # products that read it round by layout
        return np.ascontiguousarray(self._cycle(0, R))

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        if depth == len(self.levels) - 1:
            return self._coarse_inv @ np.ascontiguousarray(b)
        lv, smooth = self.levels[depth], self._smoothers[depth]
        x = smooth * b
        # P^T r: signed residual rows summed by aggregate in vertex order; each
        # n-by-k temporary is freed before the next is made
        r = lv.op.matmat(x)
        np.subtract(b, r, out=r)
        r *= lv.sign[:, None]
        nc = self.levels[depth + 1].op.n
        rc = np.stack([np.bincount(lv.agg, column, minlength=nc) for column in r.T], axis=1)
        del r
        correction = np.take(self._cycle(depth + 1, rc), lv.agg, axis=0)
        correction *= lv.sign[:, None]
        x += correction
        del correction
        residual = lv.op.matmat(x)
        np.subtract(b, residual, out=residual)
        residual *= smooth
        x += residual
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

    ``k`` is the number of wanted pairs (the k of ``lobpcg_smallest``), not
    the block size.  The exception is a standard operator with fewer
    negative edges than the k wanted pairs: each negative edge adds one
    rank-one negative term to the Laplacian of the positive edges, so at
    least one wanted pair is a non-negative, smooth mode, which the shift
    to ``sigma_G = -2 max_i d-_i`` would blur.  There the matrix is the
    signed Laplacian plus ``sigma I``, which differs from A only at the
    ends of the negative edges, with the larger ``_SHIFT_REL_SIGNED``: that
    matrix is no shift of A, so a smaller sigma does not bring the cycle
    nearer A's shift-and-invert, and on the 3000-mass string it cost about
    four times the iterations.  A Fiedler solve wants one pair and never takes this
    branch; ``spectrum --k 2 --deflate-ones`` on a string with one negative
    edge does.

    Vertices pair along strong edges (see ``_pair``); a partner takes the
    sign of its edge, so the Galerkin matrix ``P^T (L + E) P`` of a signed
    Laplacian L plus a diagonal E is again a signed Laplacian, of the
    contracted graph with parallel edges summed, plus a diagonal (see
    ``_contract``): every level is ``diag(r + excess) - W`` of its own
    graph, with its own radii r and excess.  Each graph reached is paired
    once.  None when the graph's pairing leaves more than ``_MAX_SHRINK``
    of its vertices (random graphs, whose edges are rarely strong), or when
    the pairing of a later graph does, the coarsest level's included.
    """
    g = op.graph
    # the mean of the radii scaled into [0, 1]: their plain sum can overflow
    # where every radius is finite; a power of two keeps the bits otherwise
    e = math.frexp(float(op.radii.max()))[1]
    scale = math.ldexp(float(np.ldexp(op.radii, -e).mean()), e)
    # d_i = r_i on every vertex unless the operator is a standard Laplacian
    # with a negative edge; then d_i - r_i = -2 d-_i
    negative_edges = 0 if np.array_equal(op.diagonal, op.radii) else int((g.edge_arrays()[2] < 0).sum())
    if 0 < negative_edges < k:
        excess = np.full(g.n, _SHIFT_REL_SIGNED * scale)
    else:
        excess = op.diagonal - op.radii - op.gershgorin_lower + _SHIFT_REL * scale
    levels, pairing = [], _pair(g)
    while pairing is not None:
        level_op = SymmetricOperator(g, degrees(g, absolute=True) + excess)
        if g.n <= _COARSE_MAX:
            levels.append(Level(level_op))
            return MultilevelPreconditioner(levels)
        agg, sign = np.arange(g.n), np.ones(g.n)
        for _ in range(_PAIRINGS_PER_LEVEL):
            pair_agg, pair_sign = pairing
            g, excess = _contract(g, excess, pair_agg, pair_sign)
            sign *= pair_sign[agg]
            agg = pair_agg[agg]
            pairing = _pair(g)
            if pairing is None or g.n <= _COARSE_MAX:
                break
        levels.append(Level(level_op, agg, sign))
    return None


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
    radii = degrees(g, absolute=True)
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


def _orthonormalize(V: np.ndarray, guard: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of V's columns, orthogonal to an orthonormal guard.

    One or two passes of Cholesky-QR.  Each pass projects V off the guard,
    factors the column-scaled Gram matrix ``D^-1 V^T V D^-1 = L L^T`` (D
    holding the column norms) and takes ``V D^-1 L^-T``.  Since ``diag(L) *
    D`` is ``|diag R|`` of ``V = QR``, a column is dropped exactly when QR
    would drop it: at or below ``_QR_DROP_TOL`` times the largest.  A pass
    falls back to ``np.linalg.qr`` when the factorization fails or a
    diagonal entry of L is at most ``_CHOL_MIN_DIAG``, where rounding in the
    Gram matrix could decide the drop.

    The first pass is the last when it needs no repair: every column kept
    at least half its squared norm through the projection, so one
    projection left it orthogonal to the guard (Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 1976); no column was dropped; and ``kappa(L) <=
    sqrt(m) ||L^-1||_F`` is below ``_ONE_PASS_COND``.  Otherwise a second
    pass runs (CholQR2).  A block whose squared column norms would leave
    the normal range is first scaled by a power of two, exactly.
    """
    for first in (True, False):
        if first:
            before = np.einsum("ij,ij->j", V, V)
            if not 1.0 / _GRAM_RANGE < before.max(initial=0.0) < _GRAM_RANGE:
                peak = np.abs(V).max(initial=0.0)
                if not 0.0 < peak < math.inf:
                    return V[:, :0]
                V = np.ldexp(V, -math.frexp(peak)[1])
                before = np.einsum("ij,ij->j", V, V)
        if guard is not None:
            projection = guard @ (guard.T @ V)
            V = np.subtract(V, projection, out=projection)
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
            L_inv = np.linalg.inv(L)
            keep = diag > _QR_DROP_TOL * diag.max()
            V = V @ (L_inv.T / norms[:, None])[:, keep]
            if (first and keep.all()
                    and (np.diagonal(G) >= 0.5 * before).all()
                    and math.sqrt(len(d)) * np.linalg.norm(L_inv) < _ONE_PASS_COND):
                return V
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
    most ``_ONES_RESIDUAL_REL`` times the operator's largest absolute row
    sum, a test relative at every weight scale.
    """
    scale = op.norm_inf or 1.0  # an edgeless operator has Au = 0
    drift = float(np.linalg.norm(Au / scale)) * scale  # the squares of Au may overflow
    if drift > _ONES_RESIDUAL_REL * op.norm_inf:
        raise ValueError(
            f"ones is not an eigenvector of the operator (|A u| = {drift:.3e}); "
            "it cannot be deflated"
        )


def lobpcg_smallest(op: SymmetricOperator, k: int, cfg: SolverConfig, deflate_ones: bool = False, *,
                    gap_partner: bool = False) -> tuple[Spectrum, list[np.ndarray]]:
    """Iteratively compute the k smallest eigenpairs of a symmetric operator.

    The block has ``cfg.block_size`` columns, or k.  With ``gap_partner``
    it has at least k + 1 where the solve space has room, so that the
    column past the k-th bounds the gap of the k-th pair.  A block smaller
    than k or larger than ``solve_space_dimension`` raises ``ValueError``.

    Each iteration performs a Rayleigh-Ritz projection onto the span of the
    current block X, the residual block W and the previous search
    directions P, and applies the operator once, to W.  The stopping test
    covers the k wanted columns only, except the first, which stops only a
    block whose every column has converged; if the update after it finds no
    residual direction, the solve ends there.  Converged leading columns
    are locked.  The returned spectrum holds the whole block's m Ritz pairs
    in ascending order, the wanted ones first, each with its final
    residual norm and converged flag.  A Ritz value is at least the
    eigenvalue of its rank, so an unconverged column past the k-th still
    bounds its eigenvalue from above.  Not converging within ``max_iter``
    is not an error.  Returns the spectrum, whose ``iterations`` counts the
    residual tests, and the list of the block's Ritz values at each
    iteration, one per residual test.

    The basis [X, P, W] stays orthonormal without re-projecting X or P.  W
    is orthonormalized against [ones, X, P] by one or two passes of
    Cholesky-QR with QR's drop rule (see ``_orthonormalize``).  The Ritz
    coefficients Zk give the new X and AX.  P spans what the new Ritz
    vectors gained over the old X (Hetmaniuk & Lehoucq, 2006); its
    coefficients are an orthonormal basis of that gain within the
    complement of Zk, from an SVD in the small projected space (Duersch,
    Shao, Yang & Gu, 2018).  So P and AP come from the same two block
    products as X and AX, and no normalization of a cancelled
    n-vector can amplify the rounding in the implicit AP.

    The blocks live in column ranges of one pair of buffers, V = [ones, X,
    P, W] and AV, 2 (c + 3m) n-vectors with c = 1 where ones is deflated.
    The new [X, P] and [AX, AP] are products of those columns, so each goes
    to a scratch block first and is then copied in; locked columns stay in
    place.  The preconditioner is built before the buffers and the final
    explicit residual is taken after they are freed, so a solve's peak is
    the buffers, R (m n-vectors), the preconditioner and one step's
    temporaries: about 53-56 n-vectors at block 5 on a random graph with
    6n edges (``tracemalloc``).

    With ``precondition`` W starts from B R instead of R: B is the V-cycle
    of ``multilevel_preconditioner`` when it builds one, else the diagonal T
    of ``jacobi_preconditioner``.  The projection against [ones, X, P]
    keeps W orthogonal to ones.  With ``deflate_ones`` the ones vector guards the
    basis, and an operator that moves ones raises ``ValueError`` before the
    first iteration.
    """
    n = op.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dim = solve_space_dimension(n, deflate_ones)
    m = k if cfg.block_size is None else cfg.block_size
    if gap_partner:
        m = max(m, min(k + 1, dim))
    if m < k:
        raise ValueError(f"block_size {m} smaller than k {k}")
    if m > dim:
        raise ValueError(f"block_size {m} too large for a solve space of dimension {dim}")
    # built first, so that its temporaries are freed before the work buffers exist
    precondition = _preconditioner(op, k) if cfg.precondition else None
    theta, X, trace = _lobpcg_iterate(op, k, m, cfg, int(deflate_ones), precondition)
    # the work buffers were freed on return: the explicit residual A X - X theta needs X alone
    R = op.matmat(X)
    R -= X * theta
    residuals, converged = _residual_check(R, theta, cfg.tol, op.norm_inf)
    spectrum = Spectrum(eigenvalues=theta, eigenvectors=X, residual_norms=residuals,
                        converged=converged, iterations=len(trace))
    return spectrum, trace


def _lobpcg_iterate(op: SymmetricOperator, k: int, m: int, cfg: SolverConfig, c: int,
                    precondition: Optional[Callable[[np.ndarray], np.ndarray]]
                    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The iterations of ``lobpcg_smallest`` with a block of m columns, c = 1 deflating ones.

    Returns the Ritz values in ascending order, their Ritz vectors as a
    fresh (n, m) array, and the per-iteration Ritz values.
    """
    n = op.n
    rng = np.random.default_rng(cfg.seed)
    X = rng.uniform(-1.0, 1.0, size=(n, m))
    # column layout of V and AV: [ones (c) | X (m) | P (np_) | W (nw)]
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
    del X
    AV[:, c : c + m] = AV[:, c : c + m] @ Z
    R = np.empty((n, m), order="F")
    norm_inf = op.norm_inf
    np_ = 0
    trace = []
    nlock = 0
    for it in range(cfg.max_iter):
        np.multiply(V[:, c : c + m], theta, out=R)
        np.subtract(AV[:, c : c + m], R, out=R)
        conv = _residual_check(R, theta, cfg.tol, norm_inf)[1]
        trace.append(theta.copy())
        # a start block that already holds the wanted pairs gets one update,
        # so that a partner tied with them is found before the solve stops
        if conv[: k if it else m].all():
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
            if conv[:k].all():  # the first test's update: nothing is left to add
                break
            raise BasisDegenerateError(
                "residual block vanished before reaching the tolerance"
            )
        V[:, w0 : w0 + nw] = W
        del W  # V holds it now
        AV[:, w0 : w0 + nw] = op.matmat(V[:, w0 : w0 + nw])
        S, AS = V[:, x0 : w0 + nw], AV[:, x0 : w0 + nw]
        ritz, Z = np.linalg.eigh(S.T @ AS)
        # P's coefficients: an orthonormal basis, within the complement of
        # Zk, of the components of the new Ritz vectors outside the old X
        U, sv, _ = np.linalg.svd(Z[na:, na:].T @ Z[na:, :na], full_matrices=False)
        U = U[:, sv > _QR_DROP_TOL * sv.max(initial=0.0)]
        np_ = U.shape[1]
        coef = np.concatenate((Z[:, :na], Z[:, na:] @ U), axis=1)
        # the locked columns c:x0 stay where they are; S reads the columns
        # it overwrites, so numpy buffers the product before writing it
        np.matmul(S, coef, out=V[:, x0 : c + m + np_])
        np.matmul(AS, coef, out=AV[:, x0 : c + m + np_])
        theta[nlock:] = ritz[:na]
    order = np.argsort(theta, kind="stable")
    return theta[order], V[:, c : c + m][:, order], trace


def lobpcg_lockstep(
    problems: Sequence[tuple[SymmetricOperator, bool]],
    seeds: Sequence[int],
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent single-vector LOBPCG solves, one per operator and seed, run in lock step.

    ``problems`` lists operators of one n, each with its ``deflate_ones``
    flag.  The columns are operator-major: column ``i * len(seeds) + b`` is,
    up to rounding, the unpreconditioned block-1 solve of
    ``lobpcg_smallest`` on operator i for ``seeds[b]``: the same start, the
    same basis [x, p, w], and the same test (``_residual_check``, at its
    operator's ``||A||_inf``) before each of at most ``max_iter`` updates.
    A converged column stays as it is while the others go on.  Each
    iteration applies every operator once, as one block matvec of its
    active columns; everything else, from the residual test to the
    coefficient products, runs once over all active columns, and their
    3-by-3 Rayleigh-Ritz problems share one stacked ``eigh``.  The columns
    are not coupled: a block Rayleigh-Ritz over them would be
    ``lobpcg_smallest`` with a larger block.

    Each w is the residual projected off the ones vector, x and p of its
    own column, by the projection and half-norm test of ``_orthonormalize``
    (see ``_orthonormalize_columns``); the ones guard of a column whose
    operator keeps ones is zero.  A column without p, as at the first
    iteration, carries a zero p whose Rayleigh-Ritz diagonal is padded
    above the rest of its spectrum, so that the pad is never the lowest
    Ritz pair.  p's coefficients are the normalized gain of the new Ritz
    vector outside the old x, within the complement of its own
    coefficients: what the SVD of ``lobpcg_smallest`` reduces to for one
    column, and, as there, a gain of exactly zero leaves the column
    without p.

    Returns the Ritz values, the unit Ritz vectors as the columns of an
    (n, len(problems) * len(seeds)) array, and each column's iteration
    count: its number of residual tests, the length of
    ``lobpcg_smallest``'s trace.  No operators, no seeds or operators of
    unequal n raise ``ValueError``.
    """
    seeds = list(seeds)
    if not problems:
        raise ValueError("lobpcg_lockstep needs at least one operator")
    if not seeds:
        raise ValueError("lobpcg_lockstep needs at least one seed")
    sizes = [op.n for op, _ in problems]
    if len(set(sizes)) > 1:
        raise ValueError(f"lobpcg_lockstep needs operators of one n, got n = {sizes}")
    n, s = sizes[0], len(seeds)
    X = np.tile(np.column_stack([np.random.default_rng(b).uniform(-1.0, 1.0, size=n) for b in seeds]),
                len(problems))
    # each column's ones guard: the unit ones vector where its operator deflates ones, else zero
    ones = np.broadcast_to(np.repeat([1.0 / math.sqrt(n) if d else 0.0 for _, d in problems], s), X.shape)
    X = _orthonormalize_columns(X, [ones])
    AX = np.empty_like(X)
    for i, (op, deflate_ones) in enumerate(problems):
        block = slice(i * s, (i + 1) * s)
        if deflate_ones:
            AUX = op.matmat(np.column_stack((ones[:, i * s], X[:, block])))
            _require_ones_null(op, AUX[:, 0])
            AX[:, block] = AUX[:, 1:]
        else:
            AX[:, block] = op.matmat(X[:, block])
    theta = np.einsum("ij,ij->j", X, AX)
    norm_inf = np.repeat([op.norm_inf for op, _ in problems], s)
    P, AP = np.zeros_like(X), np.zeros_like(X)
    has_p = np.zeros(X.shape[1], dtype=bool)
    iterations = np.zeros(X.shape[1], dtype=int)
    done = np.zeros(X.shape[1], dtype=bool)
    for _ in range(max_iter):
        a = np.flatnonzero(~done)
        iterations[a] += 1
        R = AX[:, a] - X[:, a] * theta[a]
        conv = _residual_check(R, theta[a], tol, norm_inf[a])[1]
        done[a[conv]] = True
        a, R = a[~conv], R[:, ~conv]
        if not len(a):
            break
        x, p = X[:, a], P[:, a]
        W = _orthonormalize_columns(R, [ones[:, a], x, p])
        # one block matvec per operator, of its active columns: a[lo:hi]
        cuts = np.searchsorted(a, np.arange(len(problems) + 1) * s)
        AW = np.empty_like(W)
        for (op, _), lo, hi in zip(problems, cuts[:-1], cuts[1:]):
            if lo < hi:
                AW[:, lo:hi] = op.matmat(W[:, lo:hi])
        S, AS = np.stack((x, p, W)), np.stack((AX[:, a], AP[:, a], AW))
        H = np.matmul(S.transpose(2, 0, 1), AS.transpose(2, 1, 0))
        # a zero p has a zero row and column; its diagonal goes above the
        # column's other eigenvalues, which the sum of its absolute entries
        # bounds, at the column's own scale
        pad = ~has_p[a]
        H[pad, 1, 1] = 2.0 * np.abs(H[pad]).sum(axis=(1, 2))
        ritz, Z = np.linalg.eigh(H)
        gain = np.einsum("bki,bk->bi", Z[:, 1:, 1:], Z[:, 1:, 0])
        size = np.linalg.norm(gain, axis=1)
        # with one singular value, the SVD's drop rule (at most _QR_DROP_TOL
        # times the largest) drops only an exact zero
        has_p[a] = size > 0.0
        gain[has_p[a]] /= size[has_p[a], None]
        coef = np.stack((Z[:, :, 0], np.einsum("bij,bj->bi", Z[:, :, 1:], gain)), axis=2)
        X[:, a], P[:, a] = np.matmul(S.transpose(2, 1, 0), coef).transpose(2, 1, 0)
        AX[:, a], AP[:, a] = np.matmul(AS.transpose(2, 1, 0), coef).transpose(2, 1, 0)
        theta[a] = ritz[:, 0]
    return theta, X, iterations


def _residual_check(R: np.ndarray, theta: np.ndarray, tol: float,
                    norm_inf: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column norms of a residual block R and whether each has converged.

    A column has converged when its norm is at most ``tol * max(min(1,
    norm_inf), |theta|)``, or at most the rounding level ``_ROUNDING_RESIDUAL
    * sqrt(n) * eps * norm_inf`` that no residual can go below.  ``norm_inf``
    is the operator's ``||A||_inf``, or one per column.  The floor
    ``min(1, ||A||_inf)`` keeps ``tol`` relative below unit scale.  The
    rounding level serves a |theta| tiny against ``||A||_inf``, as the
    signed kind's Fiedler value at a large weight scale, where ``tol *
    |theta|`` is below rounding.  Each column is scaled by a power of two,
    exactly, before its squares are summed, so that they neither underflow
    nor overflow.
    """
    e = np.frexp(np.abs(R).max(axis=0, initial=0.0))[1]
    S = np.ldexp(R, -e)
    norms = np.ldexp(np.sqrt(np.einsum("ij,ij->j", S, S)), e)
    rounding = _ROUNDING_RESIDUAL * math.sqrt(R.shape[0]) * np.finfo(float).eps * norm_inf
    return norms, norms <= np.maximum(tol * np.maximum(np.minimum(1.0, norm_inf), np.abs(theta)), rounding)


def _orthonormalize_columns(W: np.ndarray, guards: list[np.ndarray]) -> np.ndarray:
    """Each column of W projected off the same column of every guard, and normalized.

    The guard columns that belong to one column of W are orthonormal, or
    zero.  As in ``_orthonormalize``, a column that kept less than half its
    squared norm through the projection is projected once more (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 1976).  Each column is first
    scaled by a power of two, exactly, so that its squared norm stays a
    normal number.  A column that vanishes raises ``BasisDegenerateError``.
    """
    W = np.ldexp(W, -np.frexp(np.abs(W).max(axis=0, initial=0.0))[1])
    before = np.einsum("ij,ij->j", W, W)
    W, after = _project_columns(W, guards)
    again = after < 0.5 * before
    if again.any():
        W[:, again] = _project_columns(W[:, again], [G[:, again] for G in guards])[0]
    return W


def _project_columns(W: np.ndarray, guards: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """W projected column by column off the guards and normalized, with its squared norms before normalizing."""
    coefficients = [np.einsum("ij,ij->j", G, W) for G in guards]
    for G, c in zip(guards, coefficients):
        W = W - G * c
    squares = np.einsum("ij,ij->j", W, W)
    if not ((0.0 < squares) & (squares < math.inf)).all():
        raise BasisDegenerateError("a column vanished under its projection")
    return W / np.sqrt(squares), squares
