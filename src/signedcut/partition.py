"""Fiedler vectors, sign-based bisection, confidence, and cut metrics.

For the standard Laplacian the Fiedler vector is the eigenvector of the
smallest eigenvalue restricted to the complement of the ones vector (the
smallest eigenvalue may be negative).  For the signed Laplacian it is the
smallest-eigenvalue eigenvector, skipping a leading eigenvector only when it
matches the trivial constant vector.  The dense route takes every
eigenvalue from ``eigvalsh`` and only the vectors it selects from shifted
solves (``DenseEigenproblem``); a component at rounding level comes back
as an exact zero.  Bisection assigns vertices by component sign; squared
components of the unit-norm vector act as a per-vertex confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .eigen import (
    DenseEigenproblem,
    IterationTrace,
    SolverConfig,
    Spectrum,
    estimate_largest_eigenvalue,
    lobpcg_smallest,
)
from .errors import (
    BasisDegenerateError,
    DegenerateVectorError,
    EmptySideError,
    InsufficientSpectrumError,
    MultiComponentError,
    SolverFailedError,
)
from .graph import SignedGraph, connected_in_absolute_value, nullify_negative
from .laplacian import LaplacianKind, SymmetricOperator, laplacian

# Fiedler eigenvalues closer than this fraction of the spectrum spread to
# their nearest neighbor get flagged: the eigenvector is then essentially an
# arbitrary member of a near-degenerate eigenspace and small perturbations
# (noise in the weights, truncated iteration) can rotate it freely.
CLUSTERED_GAP_FRACTION = 0.02

# A leading eigenvector this aligned with the normalized ones vector is the
# trivial constant vector and is skipped.
TRIVIAL_ONES_CORRELATION = 1.0 - 1e-6

# Below this relative gap the condition number is reported as +inf.
ZERO_GAP_REL = 1e-14


@dataclass(frozen=True, eq=False)
class FiedlerResult:
    """Selected eigenpair plus gap diagnostics for one Laplacian kind.

    ``eigenvalues`` are the ascending eigenvalues the selection saw: the
    whole computed spectrum, ones-deflated for the standard kind.
    ``gap_converged`` is None for the dense oracle.  An iterative solve
    sets it to whether the Fiedler pair's gap partner converged.  When it
    did not, ``gap`` is an upper estimate, since the partner's Ritz value
    is at least its eigenvalue.  ``clustered_warning`` may then be missed.
    """

    vector: np.ndarray
    eigenvalue: float
    kind: LaplacianKind
    skipped_constant: bool
    gap: float
    clustered_warning: bool
    condition_number: float
    eigenvalues: np.ndarray
    gap_converged: Optional[bool] = None


@dataclass(frozen=True, eq=False)
class Partition:
    """Two-way vertex assignment; side 0 is A, side 1 is B."""

    side: np.ndarray

    @property
    def n(self) -> int:
        return len(self.side)

    @property
    def set_a(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self.side == 0))

    @property
    def set_b(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self.side == 1))

    def as_sets(self) -> frozenset[frozenset[int]]:
        """Label-free view, for comparisons up to an A/B swap."""
        return frozenset((self.set_a, self.set_b))


@dataclass(frozen=True)
class CutMetrics:
    """Cut quality numbers for one partition of one signed graph.

    ``cut`` is the signed sum over cross edges; ``cut_plus`` and
    ``cut_minus_cross`` the absolute totals of positive and negative cross
    edges; ``signed_cut`` is 2*cut_plus plus the absolute negative weight
    kept inside each side, which differs from 2*cut_plus - cut_minus_cross
    by the constant total negative weight.
    """

    cut: float
    cut_plus: float
    cut_minus_cross: float
    cut_minus_within_a: float
    cut_minus_within_b: float
    signed_cut: float
    ratio_cut: float
    signed_ratio_cut: float
    total_negative: float


def fiedler(
    g: SignedGraph,
    kind: LaplacianKind | str = LaplacianKind.STANDARD,
    solver: Optional[SolverConfig] = None,
) -> FiedlerResult:
    """Fiedler vector of a connected signed graph for the given kind.

    ``solver=None`` uses the dense route (see ``_fiedler_dense``); a
    :class:`SolverConfig` routes the solve through the iterative
    eigensolver (see ``_fiedler_iterative``).  On a graph without negative
    edges both routes give the signed kind the standard kind's vector, since
    the two Laplacians are then the same matrix.
    """
    kind = LaplacianKind(kind)
    if g.n < 2:
        raise MultiComponentError("need at least two vertices to bisect")
    if not connected_in_absolute_value(g):
        raise MultiComponentError(
            "graph is disconnected in the absolute-value sense; "
            "the Fiedler vector is ambiguous"
        )
    if solver is not None:
        return _fiedler_iterative(g, kind, solver)
    if kind is LaplacianKind.STANDARD:
        return _fiedler_dense(laplacian(g, kind), kind)
    if (g.edge_arrays()[2] < 0).any():
        return _fiedler_dense(laplacian(g, kind), kind, deflate_ones=False)
    # the signed spectrum is the standard one with the ones pair in front
    f = _fiedler_dense(laplacian(g, LaplacianKind.STANDARD), LaplacianKind.STANDARD)
    return replace(f, kind=kind, skipped_constant=True,
                   eigenvalues=np.concatenate(([0.0], f.eigenvalues)))


def baseline_fiedler(g: SignedGraph) -> FiedlerResult:
    """Standard-kind Fiedler pair of the edge-deleted baseline: g without its negative edges.

    The baseline may be disconnected, which :func:`fiedler` rejects; the
    ones-deflated dense spectrum stays defined.
    """
    return _fiedler_dense(laplacian(nullify_negative(g), LaplacianKind.STANDARD),
                          LaplacianKind.STANDARD)


def _fiedler_dense(op: SymmetricOperator, kind: LaplacianKind, deflate_ones: bool = True) -> FiedlerResult:
    """The Fiedler pair from all eigenvalues and one or two shifted solves.

    Column 1 is computed, projected off column 0, only when column 0 is the
    constant vector that ``select_fiedler`` skips.
    """
    problem = DenseEigenproblem(op, deflate_ones=deflate_ones)
    v = problem.vector(0)
    vectors = v[:, None]
    if _is_constant(v):
        vectors = np.column_stack((v, problem.vector(1, orthogonal_to=v)))
    return select_fiedler(Spectrum(problem.eigenvalues, vectors), kind)


def _is_constant(v: np.ndarray) -> bool:
    """Whether a unit vector is the trivial constant one that ``select_fiedler`` skips."""
    ones = np.ones(len(v)) / math.sqrt(len(v))
    return abs(float(v @ ones)) >= TRIVIAL_ONES_CORRELATION


def select_fiedler(
    s: Spectrum,
    kind: LaplacianKind | str,
    largest_eigenvalue: float | None = None,
) -> FiedlerResult:
    """Pick the Fiedler pair of a spectrum and its gap diagnostics.

    Column 0 is skipped exactly when it is the constant vector; a
    ones-deflated spectrum never trips that test, so one rule serves both
    kinds.  The gap is the distance to the next eigenvalue (+inf if there is
    none).  The spread runs from the Fiedler eigenvalue to the largest
    eigenvalue, which ``largest_eigenvalue`` completes for a partial
    spectrum.  The condition number is spread / gap, or +inf for a gap of
    at most ZERO_GAP_REL times the spread.  The vector has unit norm and
    ``bisect``'s sign: its first component of largest magnitude is
    positive, so the sides follow its signs as returned.  ``gap_converged``
    is the partner column's converged flag, False when the spectrum has no
    partner, and None for a spectrum without flags (the dense oracle).
    """
    lam = s.eigenvalues
    skipped = _is_constant(s.eigenvectors[:, 0])
    idx = 1 if skipped else 0
    if idx >= s.k:
        raise InsufficientSpectrumError("spectrum too small after skipping the constant vector")
    eigenvalue = float(lam[idx])
    gap = float(lam[idx + 1] - lam[idx]) if idx + 1 < s.k else math.inf
    top = float(lam[-1])
    if largest_eigenvalue is not None:
        top = max(top, largest_eigenvalue)
    spread = top - eigenvalue
    clustered = math.isfinite(gap) and spread > 0 and gap <= CLUSTERED_GAP_FRACTION * spread
    gap_converged = None
    if s.converged is not None:
        gap_converged = idx + 1 < s.k and bool(s.converged[idx + 1])
    vector = s.eigenvectors[:, idx]
    vector = vector / np.linalg.norm(vector)
    # bisect's sign rule: the first component of largest magnitude is positive
    if vector[np.argmax(np.abs(vector))] < 0:
        vector = 0.0 - vector  # an exact zero stays +0.0
    return FiedlerResult(
        vector=vector,
        eigenvalue=eigenvalue,
        kind=LaplacianKind(kind),
        skipped_constant=skipped,
        gap=gap,
        clustered_warning=clustered,
        condition_number=math.inf if gap <= ZERO_GAP_REL * spread else spread / gap,
        eigenvalues=lam,
        gap_converged=gap_converged,
    )


def _fiedler_iterative(g: SignedGraph, kind: LaplacianKind, solver: SolverConfig) -> FiedlerResult:
    """The Fiedler pair from one wanted LOBPCG pair in a block of at least two.

    The solve stops when the Fiedler column has converged; the next column
    gives the gap, as an upper estimate while it is unconverged.  When
    ``select_fiedler`` skips a near-constant column 0, that column is the
    one the stopping test covered; if column 1 is then unconverged, the
    solve runs once more with two wanted pairs before it fails.  The
    standard kind deflates ones.  So does the signed kind of a graph
    without negative edges, which is the same operator: it gets the
    standard kind's solve and vector, and keeps its own kind.
    """
    deflate = kind is LaplacianKind.STANDARD or not (g.edge_arrays()[2] < 0).any()
    op = laplacian(g, LaplacianKind.STANDARD if deflate else kind)
    cfg = replace(
        solver,
        k=1,
        block_size=max(solver.effective_block_size, 2),
        deflate_ones=deflate,
    )
    s, trace = _lobpcg(op, cfg)
    top = estimate_largest_eigenvalue(op, seed=cfg.seed)
    f = select_fiedler(s, kind, top)
    if f.skipped_constant and not s.converged[1]:
        # the stopping test covered column 0 alone: solve once more for two
        # wanted pairs, with a third column for the gap where n allows
        block = min(max(cfg.block_size, 3), op.n - 1)
        s, trace = _lobpcg(op, replace(cfg, k=2, block_size=block))
        f = select_fiedler(s, kind, top)
    if f.skipped_constant:
        if not s.converged[1]:
            raise SolverFailedError(
                "iterative solve skipped the near-constant column 0 and left the Fiedler "
                f"pair in column 1 unconverged (residual {s.residual_norms[1]:.3e}) "
                f"after {len(trace)} iterations"
            )
    elif not s.converged[0]:
        raise SolverFailedError(
            "iterative solve left the Fiedler pair unconverged after "
            f"{len(trace)} iterations (best residual {min(trace.max_residuals):.3e}); "
            "raise max_iter or loosen tol"
        )
    return f


def _lobpcg(op: SymmetricOperator, cfg: SolverConfig) -> tuple[Spectrum, IterationTrace]:
    """``lobpcg_smallest``, with a lost basis reported as a failed solve."""
    try:
        return lobpcg_smallest(op, cfg)
    except BasisDegenerateError as exc:
        raise SolverFailedError(str(exc)) from exc


def bisect(f: FiedlerResult, zero_policy: str = "positive-side") -> Partition:
    """Split vertices by the signs of the Fiedler components.

    The global sign is normalized so the component of largest magnitude is
    positive; exact zeros then follow ``zero_policy`` (``positive-side`` or
    ``negative-side``).
    """
    if zero_policy not in ("positive-side", "negative-side"):
        raise ValueError(f"unknown zero_policy {zero_policy!r}")
    v = np.asarray(f.vector, dtype=np.float64)
    peak = np.argmax(np.abs(v))
    if v[peak] == 0.0:
        raise DegenerateVectorError("zero vector cannot define a bisection")
    if v[peak] < 0:
        v = -v
    if zero_policy == "positive-side":
        on_a = v >= 0.0
    else:
        on_a = v > 0.0
    side = np.where(on_a, 0, 1).astype(np.int8)
    if not (side == 0).any() or not (side == 1).any():
        raise DegenerateVectorError(
            "all components fall on one side; bisection is meaningless"
        )
    return Partition(side=side)


def confidence(f: FiedlerResult) -> np.ndarray:
    """Squared components of the unit-norm Fiedler vector; sums to one."""
    return np.asarray(f.vector, dtype=np.float64) ** 2


def cut_metrics(g: SignedGraph, p: Partition) -> CutMetrics:
    """All cut quality numbers for a two-way partition of a signed graph."""
    if p.n != g.n:
        raise EmptySideError(
            f"partition covers {p.n} vertices, graph has {g.n}"
        )
    side = np.asarray(p.side)
    size_a = int((side == 0).sum())
    size_b = int((side == 1).sum())
    if size_a == 0 or size_b == 0:
        raise EmptySideError("both sides of the partition must be nonempty")
    ii, jj, ww = g.edge_arrays()
    cross = side[ii] != side[jj]
    neg = ww < 0
    cut = float(ww[cross].sum())
    cut_plus = float(ww[cross & ~neg].sum())
    cut_minus_cross = float(-ww[cross & neg].sum())
    within_a = (~cross) & (side[ii] == 0)
    within_b = (~cross) & (side[ii] == 1)
    cut_minus_within_a = float(-ww[within_a & neg].sum())
    cut_minus_within_b = float(-ww[within_b & neg].sum())
    signed_cut = 2.0 * cut_plus + cut_minus_within_a + cut_minus_within_b
    total_negative = float(-ww[neg].sum())
    balance = 1.0 / size_a + 1.0 / size_b
    return CutMetrics(
        cut=cut,
        cut_plus=cut_plus,
        cut_minus_cross=cut_minus_cross,
        cut_minus_within_a=cut_minus_within_a,
        cut_minus_within_b=cut_minus_within_b,
        signed_cut=signed_cut,
        ratio_cut=cut * balance,
        signed_ratio_cut=signed_cut * balance,
        total_negative=total_negative,
    )


def partition_json(f: FiedlerResult, p: Partition, conf: np.ndarray | None = None) -> dict:
    """JSON-ready dict in the documented partition schema."""
    doc = {
        "n": p.n,
        "side": p.side.tolist(),
        "fiedler": f.vector.tolist(),
        "eigenvalue": float(f.eigenvalue),
        "kind": f.kind.value,
        "gap": float(f.gap) if math.isfinite(f.gap) else None,
        "clustered_warning": bool(f.clustered_warning),
    }
    if f.gap_converged is not None:
        doc["gap_converged"] = f.gap_converged
    if conf is not None:
        doc["confidence"] = conf.tolist()
    return doc
