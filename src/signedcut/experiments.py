"""End-to-end experiment drivers shared by the CLI demos and the tests.

Both experiments compare the standard Laplacian with a negative edge
against the edge-deleted baseline and the signed Laplacian: one through
exact dense spectra (gaps and condition numbers), the other under a
truncated iteration budget (where does the lead Ritz vector change sign).
"""

from __future__ import annotations

from .eigen import lobpcg_lockstep
from .generators import StringSpec, path_string
from .graph import nullify_negative
from .laplacian import LaplacianKind, laplacian
from .partition import baseline_gap, fiedler


def gap_study(n: int, edge_index: int, weights: tuple[float, ...]) -> dict:
    """Fiedler gaps and condition numbers against the zero-weight baseline.

    ``edge_index`` is 0-based.  The baseline deletes the special edge
    entirely (a zero-weight edge and an absent edge are the same thing for
    every Laplacian here), which disconnects the string; gaps for the
    standard kind are therefore computed on the ones-deflated spectrum,
    where the piecewise-constant null vector survives as a single exact
    zero eigenvalue.
    """
    f_base = baseline_gap(path_string(StringSpec(n=n, overrides=((edge_index, -1.0),))))
    doc = {
        "n": n,
        "edge": edge_index + 1,
        "baseline": {"gap": f_base.gap, "condition_number": f_base.condition_number},
        "sweep": [],
    }
    for w in weights:
        g = path_string(StringSpec(n=n, overrides=((edge_index, w),)))
        f_std = fiedler(g, LaplacianKind.STANDARD)
        f_sgn = fiedler(g, LaplacianKind.SIGNED)
        doc["sweep"].append(
            {
                "weight": w,
                "gap_standard": f_std.gap,
                "gap_signed": f_sgn.gap,
                "condition_standard": f_std.condition_number,
                "condition_signed": f_sgn.condition_number,
                "gap_standard_over_baseline": f_std.gap / f_base.gap,
                "gap_signed_over_baseline": f_sgn.gap / f_base.gap,
                "condition_signed_over_standard": f_sgn.condition_number / f_std.condition_number,
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
