"""End-to-end experiment drivers shared by the CLI and the tests.

Both experiments compare the standard Laplacian with a negative edge
against the edge-deleted baseline and the signed Laplacian: one through
exact dense spectra (``compare``, gaps and condition numbers, and
``gap_study``, its rows over a sweep of edge weights), the other under a
truncated iteration budget (where does the lead Ritz vector change sign).
"""

from __future__ import annotations

import math

from .eigen import lobpcg_lockstep
from .errors import DegenerateVectorError
from .generators import StringSpec, path_string
from .graph import SignedGraph, nullify_negative
from .laplacian import LaplacianKind, laplacian
from .partition import FiedlerGap, baseline_gap, bisect, cut_metrics, fiedler


def _finite_or_null(x: float) -> float | None:
    """JSON has no infinity or NaN: a non-finite number is written as null."""
    return float(x) if math.isfinite(x) else None


def _ratio(a: float, b: float) -> float | None:
    return _finite_or_null(a / b) if b else None


def _fiedler_block(f: FiedlerGap) -> dict:
    return {
        "fiedler_eigenvalue": f.eigenvalue,
        "gap": _finite_or_null(f.gap),
        "condition_number": _finite_or_null(f.condition_number),
        "smallest_eigenvalues": [float(v) for v in f.eigenvalues[:5]],
    }


def _partition_block(g: SignedGraph, kind: LaplacianKind, warnings: list[str]) -> tuple[dict, FiedlerGap]:
    f = fiedler(g, kind)
    block = _fiedler_block(f)
    block["clustered_warning"] = f.clustered_warning
    if f.clustered_warning:
        warnings.append(f"{kind.value}: clustered eigenvalues, unstable Fiedler vector")
    try:
        side = bisect(f)
        m = cut_metrics(g, side)
        block["side"] = side.tolist()
        block["cut"] = m.cut
        block["signed_cut"] = m.signed_cut
        block["ratio_cut"] = m.ratio_cut
    except DegenerateVectorError:
        block["side"] = None
        warnings.append(f"{kind.value}: Fiedler components all one sign; no bisection")
    return block, f


def compare(g: SignedGraph, warnings: list[str]) -> dict:
    """The ``compare`` document: dense Fiedler gaps, condition numbers and their ratios.

    Standard and signed kinds also bisect (``side`` null when the vector has
    one sign); the baseline is g without its negative edges, from
    ``baseline_gap``.  A non-finite value, or a ratio over zero, is null.
    Clustered eigenvalues and a missing bisection go to ``warnings``.
    """
    doc = {"n": g.n, "edges": g.m}
    doc["standard"], f_std = _partition_block(g, LaplacianKind.STANDARD, warnings)
    doc["signed"], f_sgn = _partition_block(g, LaplacianKind.SIGNED, warnings)
    f_base = baseline_gap(g)
    doc["baseline"] = _fiedler_block(f_base)
    doc["baseline"]["removed_edges"] = int((g.edge_arrays()[2] < 0).sum())
    doc["ratios"] = {
        "gap_standard_over_baseline": _ratio(f_std.gap, f_base.gap),
        "gap_signed_over_baseline": _ratio(f_sgn.gap, f_base.gap),
        "condition_signed_over_standard": _ratio(f_sgn.condition_number, f_std.condition_number),
    }
    return doc


def gap_study(n: int, edge_index: int, weights: tuple[float, ...]) -> dict:
    """``compare``'s gaps, condition numbers and ratios over a sweep of edge weights.

    Each row is ``compare`` of the n-mass string whose ``edge_index``
    (0-based) edge has that weight.  The weights must be negative, so that
    every row's baseline is the string cut at that edge, scored on its
    ones-deflated spectrum (one exact zero for the piecewise-constant vector).
    """
    if not weights or not all(w < 0 for w in weights):
        raise ValueError(f"gap_study needs one or more negative weights, got {weights}")
    doc = {"n": n, "edge": edge_index + 1, "baseline": None, "sweep": []}
    for w in weights:
        c = compare(path_string(StringSpec(n=n, overrides=((edge_index, w),))), [])
        doc["baseline"] = {k: c["baseline"][k] for k in ("gap", "condition_number")}
        doc["sweep"].append(
            {
                "weight": w,
                "gap_standard": c["standard"]["gap"],
                "gap_signed": c["signed"]["gap"],
                "condition_standard": c["standard"]["condition_number"],
                "condition_signed": c["signed"]["condition_number"],
                **c["ratios"],
            }
        )
    return doc


def truncated_iteration_study(
    n: int,
    edge_index: int,
    weight: float,
    iterations: int = 30,
    seeds: int = 20,
    tol: float = 1e-8,
) -> dict:
    """Sign-change-at-the-edge frequency under a truncated iteration budget.

    For each seed the paper's unpreconditioned single-vector iteration runs
    a fixed number of iterations on the negative-weight standard Laplacian,
    the edge-deleted baseline, and the signed Laplacian, from the same
    random start, and the study counts how often the lead nontrivial Ritz
    vector changes sign across the special edge.  All three operators' seeds
    run in one lock-step solve (``lobpcg_lockstep``): each column is the
    block-1 ``lobpcg_smallest`` solve of its operator and seed, up to
    rounding.
    """
    g_neg = path_string(StringSpec(n=n, overrides=((edge_index, weight),)))
    variants = {
        "standard_negative": (g_neg, LaplacianKind.STANDARD),
        "baseline_zero": (nullify_negative(g_neg), LaplacianKind.STANDARD),
        "signed_negative": (g_neg, LaplacianKind.SIGNED),
    }
    problems = [(laplacian(g, kind), kind.deflates_ones) for g, kind in variants.values()]
    _, V, _ = lobpcg_lockstep(problems, range(seeds), tol, iterations)
    # the columns are operator-major: one row of seeds per operator
    changes = (V[edge_index] * V[edge_index + 1] < 0).reshape(len(variants), seeds)
    counts = {name: int(row.sum()) for name, row in zip(variants, changes)}
    return {
        "n": n,
        "edge": edge_index + 1,
        "weight": weight,
        "iterations": iterations,
        "seeds": seeds,
        "sign_change_counts": counts,
    }
