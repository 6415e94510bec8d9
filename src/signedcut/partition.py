"""Fiedler vectors, sign-based bisection, confidence, and cut metrics.

For the standard Laplacian the Fiedler vector is the eigenvector of the
smallest eigenvalue restricted to the complement of the ones vector (the
smallest eigenvalue may be negative).  For the signed Laplacian it is the
smallest-eigenvalue eigenvector, skipping a leading eigenvector only when it
matches the trivial constant vector.  The dense route takes every
eigenvalue from ``eigvalsh`` and only the vectors it selects from shifted
solves (``DenseEigenproblem``).  ``select_fiedler`` finishes the vector
on both routes: unit norm, one sign, and a component at rounding level
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
    SolverConfig,
    Spectrum,
    estimate_largest_eigenvalue,
    lobpcg_smallest,
)
from .errors import (
    DegenerateVectorError,
    EmptySideError,
    InsufficientSpectrumError,
    MultiComponentError,
    SolverFailedError,
)
from .graph import SignedGraph, connected_in_absolute_value, nullify_negative
from .laplacian import LaplacianKind, laplacian

# Fiedler eigenvalues closer than this fraction of the spectrum spread to
# their nearest neighbor get flagged: the eigenvector is then essentially an
# arbitrary member of a near-degenerate eigenspace and small perturbations
# (noise in the weights, truncated iteration) can rotate it freely.
CLUSTERED_GAP_FRACTION = 0.02

# A leading eigenvector this aligned with the normalized ones vector is the
# trivial constant vector and is skipped.
TRIVIAL_ONES_CORRELATION = 1.0 - 1e-6

# A gap of at most this times |lambda_F| + |top eigenvalue| is rounding at the
# spectrum's own scale: it is flagged clustered, with condition number +inf.
ZERO_GAP_REL = 1e-14


@dataclass(frozen=True, eq=False)
class FiedlerGap:
    """A Fiedler eigenvalue and its gap diagnostics (see ``_fiedler_gap``).

    ``eigenvalues`` are the ascending eigenvalues they came from: the
    whole computed spectrum, ones-deflated for the standard kind.
    """

    eigenvalue: float
    gap: float
    clustered_warning: bool
    condition_number: float
    eigenvalues: np.ndarray


@dataclass(frozen=True, eq=False)
class FiedlerResult(FiedlerGap):
    """Selected eigenpair plus gap diagnostics for one Laplacian kind.

    ``spectrum`` is the route's spectrum the pair was selected from (no
    dense matrix), and ``index`` the selected column: 0 on the standard
    solve that the signed kind of a graph without negative edges takes.
    """

    vector: np.ndarray
    kind: LaplacianKind
    skipped_constant: bool
    spectrum: Spectrum
    index: int

    @property
    def gap_converged(self) -> Optional[bool]:
        """Whether the gap partner, column ``index + 1``, converged: False without one, None for
        the dense oracle.  If not, ``gap`` is an upper estimate and ``clustered_warning`` may be missed."""
        c = self.spectrum.converged
        return None if c is None else self.index + 1 < len(c) and bool(c[self.index + 1])


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

    ``solver=None`` takes the dense route, ``DenseEigenproblem.spectrum``:
    every eigenvalue and the first k vectors, each solved once.  A
    :class:`SolverConfig` takes the iterative route: ``lobpcg_smallest``
    for k wanted pairs and their gap partner, with the Lanczos estimate of
    the largest eigenvalue for the spread; the solve stops once the k
    wanted columns converge.  Ones is deflated as the kind says.  k is 1,
    or 2 when column 0 is the near-constant vector that ``select_fiedler``
    skips and column 1 is missing (dense) or unconverged (iterative): the
    dense route then solves column 1 against the kept column 0, the
    iterative route solves again.  An unconverged selected column raises
    :class:`SolverFailedError` with the iteration count and its residual.
    Without negative edges the two Laplacians are the same matrix: both
    routes give the signed kind the standard kind's solve and vector, and
    a spectrum with an exact 0.0 in front for the ones pair, which it skips.
    """
    kind = LaplacianKind(kind)
    if g.n < 2:
        raise MultiComponentError("need at least two vertices to bisect")
    if not connected_in_absolute_value(g):
        raise MultiComponentError(
            "graph is disconnected in the absolute-value sense; "
            "the Fiedler vector is ambiguous"
        )
    positive_signed = kind is LaplacianKind.SIGNED and not (g.edge_arrays()[2] < 0).any()
    solve_kind = LaplacianKind.STANDARD if positive_signed else kind
    op = laplacian(g, solve_kind)
    if solver is None:
        spectrum = DenseEigenproblem(op, solve_kind.deflates_ones).spectrum
    else:
        def spectrum(k: int) -> Spectrum:
            return lobpcg_smallest(op, k, solver, solve_kind.deflates_ones, gap_partner=True)[0]

    s = spectrum(1)
    top = None if solver is None else estimate_largest_eigenvalue(op, seed=solver.seed)
    if _is_constant(s.eigenvectors[:, 0]) and (s.eigenvectors.shape[1] == 1 or not s.converged[1]):
        # the Fiedler pair is column 1, which the dense route has not solved
        # and the iterative stopping test did not cover
        s = spectrum(2)
    f = select_fiedler(s, solve_kind, top)
    if s.converged is not None and not s.converged[f.index]:
        skipped = "skipped the near-constant column 0 and " if f.index else ""
        raise SolverFailedError(
            f"iterative solve {skipped}left the Fiedler pair in column {f.index} unconverged after "
            f"{s.iterations} iterations (residual {s.residual_norms[f.index]:.3e}); "
            "raise max_iter or loosen tol"
        )
    if positive_signed:
        # the signed spectrum is the standard one with the ones pair in front
        f = replace(f, kind=kind, skipped_constant=True,
                    eigenvalues=np.concatenate(([0.0], f.eigenvalues)))
    return f


def baseline_gap(g: SignedGraph) -> FiedlerGap:
    """Standard-kind Fiedler eigenvalue and gap of the edge-deleted baseline: g without its negative edges.

    The baseline may be disconnected, which :func:`fiedler` rejects; the
    ones-deflated dense spectrum stays defined.  Its Fiedler eigenvalue is
    the smallest one, since a ones-deflated spectrum has no constant vector
    to skip, so no eigenvector is computed.
    """
    kind = LaplacianKind.STANDARD
    op = laplacian(nullify_negative(g), kind)
    return _fiedler_gap(DenseEigenproblem(op, kind.deflates_ones).eigenvalues, 0)


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
    kinds.  The gap, spread and condition number follow ``_fiedler_gap``,
    with ``largest_eigenvalue`` completing a partial spectrum's spread.
    This is the one place a Fiedler vector is finished, on both routes,
    by ``finish_vector``.
    """
    skipped = _is_constant(s.eigenvectors[:, 0])
    idx = 1 if skipped else 0
    if idx >= s.k:
        raise InsufficientSpectrumError("spectrum too small after skipping the constant vector")
    return FiedlerResult(
        vector=finish_vector(s.eigenvectors[:, idx]),
        kind=LaplacianKind(kind),
        skipped_constant=skipped,
        spectrum=s,
        index=idx,
        **vars(_fiedler_gap(s.eigenvalues, idx, largest_eigenvalue)),
    )


def _oriented(v: np.ndarray) -> np.ndarray:
    """v with the one sign rule: its first component of largest magnitude is positive.

    An exact zero stays +0.0.
    """
    return 0.0 - v if v[np.argmax(np.abs(v))] < 0 else v


def finish_vector(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm, oriented by ``_oriented`` (``bisect``'s rule),
    with each component at or below ``n * eps`` times the largest, which is
    rounding, set to exactly 0: so a zero policy, not rounding, places that vertex."""
    x = _oriented(v / np.linalg.norm(v))
    x = x / np.linalg.norm(x)
    x[np.abs(x) <= len(x) * np.finfo(float).eps * np.abs(x).max()] = 0.0
    return x / np.linalg.norm(x)


def _fiedler_gap(lam: np.ndarray, idx: int, largest_eigenvalue: float | None = None) -> FiedlerGap:
    """The gap diagnostics of the Fiedler eigenvalue ``lam[idx]`` of ascending eigenvalues ``lam``.

    The gap is the distance to the next eigenvalue (+inf if there is none).
    The spread runs from the Fiedler eigenvalue to the largest eigenvalue,
    which ``largest_eigenvalue`` completes for a partial spectrum.  A gap of
    at most ZERO_GAP_REL (|eigenvalue| + |top|) is flagged, with condition
    number +inf; any other has condition number spread / gap, and is
    flagged at or below CLUSTERED_GAP_FRACTION times the spread.
    """
    eigenvalue = float(lam[idx])
    gap = float(lam[idx + 1] - lam[idx]) if idx + 1 < len(lam) else math.inf
    top = float(lam[-1])
    if largest_eigenvalue is not None:
        top = max(top, largest_eigenvalue)
    spread = top - eigenvalue
    zero_gap = gap <= ZERO_GAP_REL * (abs(eigenvalue) + abs(top))
    return FiedlerGap(
        eigenvalue=eigenvalue,
        gap=gap,
        clustered_warning=zero_gap or (math.isfinite(gap) and gap <= CLUSTERED_GAP_FRACTION * spread),
        condition_number=math.inf if zero_gap else spread / gap,
        eigenvalues=lam,
    )


def bisect(f: FiedlerResult, zero_policy: str = "positive-side") -> np.ndarray:
    """Split vertices by the signs of the Fiedler components.

    Returns the int8 side of each vertex: 0 for side A, 1 for side B.  The
    vector is oriented by ``select_fiedler``'s rule (``_oriented``), so a
    vector and its negation give the same sides; exact zeros then follow
    ``zero_policy`` (``positive-side`` or ``negative-side``).
    """
    if zero_policy not in ("positive-side", "negative-side"):
        raise ValueError(f"unknown zero_policy {zero_policy!r}")
    v = _oriented(np.asarray(f.vector, dtype=np.float64))
    if not v.any():
        raise DegenerateVectorError("zero vector cannot define a bisection")
    on_a = v >= 0.0 if zero_policy == "positive-side" else v > 0.0
    side = np.where(on_a, 0, 1).astype(np.int8)
    if not (side == 0).any() or not (side == 1).any():
        raise DegenerateVectorError(
            "all components fall on one side; bisection is meaningless"
        )
    return side


def confidence(f: FiedlerResult) -> np.ndarray:
    """Squared components of the unit-norm Fiedler vector; sums to one."""
    return np.asarray(f.vector, dtype=np.float64) ** 2


def cut_metrics(g: SignedGraph, side: np.ndarray) -> CutMetrics:
    """All cut quality numbers for a two-way partition of a signed graph, given as its side array (0 for A, 1 for B)."""
    side = np.asarray(side)
    if len(side) != g.n:
        raise EmptySideError(
            f"partition covers {len(side)} vertices, graph has {g.n}"
        )
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


def partition_json(f: FiedlerResult, side: np.ndarray, conf: np.ndarray | None = None) -> dict:
    """JSON-ready dict in the documented partition schema, for ``bisect``'s side array."""
    doc = {
        "n": len(side),
        "side": side.tolist(),
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
