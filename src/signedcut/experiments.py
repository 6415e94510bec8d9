"""The paper's experiments, shared by the CLI and the tests.

Both studies compare the standard Laplacian with a negative edge against
the edge-deleted baseline and the signed Laplacian: one through exact
dense spectra (``compare``, gaps and condition numbers, and ``gap_study``,
its rows over a sweep of edge weights), the other under a truncated
iteration budget (where does the lead Ritz vector change sign).

Each demo in ``DEMOS`` is an experiment ``(n, seed, warnings)`` that
returns its summary and its artifacts, ``(file name, content)`` in write
order: a ``SignedGraph``, a ``Spectrum`` (an eigenmode CSV) or a JSON
dict.  No experiment touches the filesystem.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .eigen import Spectrum, dense_spectrum, lobpcg_lockstep
from .errors import DegenerateVectorError
from .generators import (DEFAULT_SPECIAL_EDGE, DEFAULT_STRING_LENGTH, NEGATIVE_EDGE_WEIGHT,
                         WEAK_LINK_WEIGHT, StringSpec, cobra, dumbbell, noisy_string, path_string)
from .graph import SignedGraph, nullify_negative
from .laplacian import LaplacianKind, laplacian
from .partition import (FiedlerGap, baseline_gap, bisect, cut_metrics, fiedler, finish_vector,
                        finite_or_null, partition_json, select_fiedler)

Artifact = tuple[str, SignedGraph | Spectrum | dict]


def _ratio(a: float, b: float) -> float | None:
    return finite_or_null(a / b) if b else None


def _fiedler_block(f: FiedlerGap) -> dict:
    return {
        "fiedler_eigenvalue": f.eigenvalue,
        "gap": finite_or_null(f.gap),
        "condition_number": finite_or_null(f.condition_number),
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


def _side_a(side: np.ndarray) -> list[int]:
    """The 1-based vertex labels of side A, ascending."""
    return (np.flatnonzero(side == 0) + 1).tolist()


# The eigenmode demos.  Each row: the special edge's weight by its summary
# key, if the string has one; k; and, per spectrum written, its Laplacian
# kind, CSV file and summary key.
_MODE_DEMOS = {
    "string-modes": ({}, 5, ((LaplacianKind.STANDARD, "string-modes.csv", "eigenvalues"),)),
    "weak-link": ({"weak_weight": WEAK_LINK_WEIGHT}, 5,
                  ((LaplacianKind.STANDARD, "weak-link-modes.csv", "eigenvalues"),)),
    "negative-edge": ({"negative_weight": NEGATIVE_EDGE_WEIGHT}, 5,
                      ((LaplacianKind.STANDARD, "negative-edge-standard.csv", "standard_eigenvalues"),
                       (LaplacianKind.SIGNED, "negative-edge-signed.csv", "signed_eigenvalues"))),
}


def string_modes_demo(name: str, n: int, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """The k smallest modes of the n-mass string of the ``_MODE_DEMOS`` row ``name``."""
    weight, k, spectra = _MODE_DEMOS[name]
    g = path_string(StringSpec(n=n, overrides=tuple((DEFAULT_SPECIAL_EDGE, w) for w in weight.values())))
    summary, artifacts = {"n": n, **weight}, []
    for kind, file, key in spectra:
        s = dense_spectrum(laplacian(g, kind), k=k)
        summary[key] = s.eigenvalues.tolist()
        artifacts.append((file, s))
    return summary, artifacts


NOISY_EDGE = 7  # 0-based: the noisy string's negative edge joins vertices 8 and 9


def noisy_string_demo(n: int, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """The seeded noisy string's graph, modes and standard partition; a clustered
    signed Fiedler eigenvalue goes to the summary and to ``warnings``."""
    g = noisy_string(n, (NOISY_EDGE, -0.5), 1e-2, seed)
    f_std = fiedler(g, LaplacianKind.STANDARD)
    side = bisect(f_std)
    f_sgn = fiedler(g, LaplacianKind.SIGNED)
    if f_sgn.clustered_warning:
        warnings.append("signed: two smallest eigenvalues form a cluster")
    summary = {
        "n": n,
        "standard_side_a": _side_a(side),
        "signed_clustered_warning": f_sgn.clustered_warning,
        "signed_gap": f_sgn.gap,
    }
    return summary, [
        ("noisy-string.mtx", g),
        ("noisy-string-standard.csv", dense_spectrum(laplacian(g, LaplacianKind.STANDARD), k=3)),
        ("noisy-string-signed.csv", dense_spectrum(laplacian(g, LaplacianKind.SIGNED), k=2)),
        ("noisy-string-partition.json", partition_json(f_std, side)),
    ]


def cobra_demo(n: int | None, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """The cobra graph's standard split, with and without its negative edge, and
    its signed spectrum: whether the first eigenvector bisects, and the signs
    of the second, finished as ``select_fiedler`` finishes a Fiedler vector."""
    g = cobra()
    side_std = bisect(fiedler(g, LaplacianKind.STANDARD))
    m = cut_metrics(g, side_std)
    doc: dict = {
        "n": g.n,
        "standard_side_a": _side_a(side_std),
        "standard_metrics": {"cut": m.cut, "signed_cut": m.signed_cut},
        "nullified_side_a": _side_a(bisect(fiedler(nullify_negative(g), LaplacianKind.STANDARD))),
    }
    s = dense_spectrum(laplacian(g, LaplacianKind.SIGNED))
    try:
        # select_fiedler makes a rounding-level component an exact zero, not a sign
        bisect(select_fiedler(s, LaplacianKind.SIGNED))
        doc["signed_first_bisects"] = True
    except DegenerateVectorError:
        doc["signed_first_bisects"] = False
        warnings.append("signed: first eigenvector has one sign, bisection degenerate")
    doc["signed_second_signs"] = [int(v) for v in np.sign(finish_vector(s.eigenvectors[:, 1]))]
    return doc, [("cobra.mtx", g), ("cobra.json", doc)]


def dumbbell_demo(n: int | None, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """The dumbbell's standard and signed splits, and the standard split's cut metrics."""
    g = dumbbell()
    side_std = bisect(fiedler(g, LaplacianKind.STANDARD))
    side_sgn = bisect(fiedler(g, LaplacianKind.SIGNED))
    m = cut_metrics(g, side_std)
    doc = {
        "n": g.n,
        "standard_side_a": _side_a(side_std),
        "signed_side_a": _side_a(side_sgn),
        "standard_metrics": {k: getattr(m, k) for k in ("cut", "cut_plus", "cut_minus_cross", "signed_cut")},
    }
    return doc, [("dumbbell.mtx", g), ("dumbbell.json", doc)]


def gap_study_demo(n: int, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """``gap_study`` of the special edge at weights -0.01, -0.05 and -0.1; the
    summary holds the gap and condition ratios at -0.05."""
    doc = gap_study(n, DEFAULT_SPECIAL_EDGE, (-0.01, -0.05, -0.1))
    ratios = {k: v for k, v in doc["sweep"][1].items() if k.startswith(("gap_s", "condition_s"))}
    return {"n": n, "ratios_at_-0.05": ratios}, [("gap-study.json", doc)]


def lobpcg_30_demo(n: int, seed: int, warnings: list[str]) -> tuple[dict, list[Artifact]]:
    """``truncated_iteration_study`` of the negative special edge; the summary is its counts."""
    doc = truncated_iteration_study(n, DEFAULT_SPECIAL_EDGE, NEGATIVE_EDGE_WEIGHT)
    return doc["sign_change_counts"], [("lobpcg-30.json", doc)]


# Each demo: its experiment, its default string length, and the 0-based
# special edge that a given length must hold, where it has them.
DEMOS = {
    "string-modes": (partial(string_modes_demo, "string-modes"), DEFAULT_STRING_LENGTH, None),
    "weak-link": (partial(string_modes_demo, "weak-link"), DEFAULT_STRING_LENGTH, DEFAULT_SPECIAL_EDGE),
    "negative-edge": (partial(string_modes_demo, "negative-edge"), DEFAULT_STRING_LENGTH, DEFAULT_SPECIAL_EDGE),
    "noisy-string": (noisy_string_demo, 12, NOISY_EDGE),
    "cobra": (cobra_demo, None, None),
    "dumbbell": (dumbbell_demo, None, None),
    "gap-study": (gap_study_demo, 100, DEFAULT_SPECIAL_EDGE),
    "lobpcg-30": (lobpcg_30_demo, DEFAULT_STRING_LENGTH, DEFAULT_SPECIAL_EDGE),
}
