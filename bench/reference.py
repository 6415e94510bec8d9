"""Reference results the benchmark computes on its own, outside timed code.

Laplacians are built here from the benchmark's edge arrays.  Spectra come
from ``numpy.linalg.eigh`` for n <= 4096 and ``scipy.sparse.linalg.eigsh``
above.  The Fiedler selection follows the rules documented in
``signedcut.partition``: the standard kind works on the complement of the
ones vector; the signed kind skips a leading eigenvector only when it is the
constant vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import EdgeArrays

ONES_CORRELATION = 1.0 - 1e-6
CLUSTERED_GAP_FRACTION = 0.02
DENSE_LIMIT = 4096


def degrees(g: EdgeArrays, signed: bool) -> np.ndarray:
    vals = np.abs(g.w) if signed else g.w
    return np.bincount(g.i, vals, g.n) + np.bincount(g.j, vals, g.n)


def dense_laplacian(g: EdgeArrays, signed: bool) -> np.ndarray:
    L = np.diag(degrees(g, signed))
    L[g.i, g.j] -= g.w
    L[g.j, g.i] -= g.w
    return L


def sparse_laplacian(g: EdgeArrays, signed: bool):
    import scipy.sparse as sp

    rows = np.concatenate([g.i, g.j, np.arange(g.n)])
    cols = np.concatenate([g.j, g.i, np.arange(g.n)])
    vals = np.concatenate([-g.w, -g.w, degrees(g, signed)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


@dataclass(frozen=True, eq=False)
class Fiedler:
    """Reference Fiedler pair with the spectrum it was selected from."""

    eigenvalue: float
    vector: np.ndarray | None  # None when only the eigenvalue is known
    gap: float
    spread: float
    smallest: np.ndarray  # ascending; the standard kind's without the ones pair


def _deflated_eigh(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of L on the complement of ones (ones must be an eigenvector).

    Adding shift * ones ones^T / n moves the ones eigenvalue above the
    Gershgorin bound of L, so it is the last pair and is dropped.
    """
    shift = 4.0 * np.abs(L).sum(axis=1).max() + 1.0
    evals, evecs = np.linalg.eigh(L + shift / L.shape[0])
    return evals[:-1], evecs[:, :-1]


def dense_fiedler(g: EdgeArrays, signed: bool) -> Fiedler:
    L = dense_laplacian(g, signed)
    if not signed:
        evals, evecs = _deflated_eigh(L)
        gap = float(evals[1] - evals[0]) if len(evals) > 1 else math.inf
        return Fiedler(float(evals[0]), evecs[:, 0], gap, float(evals[-1] - evals[0]), evals)
    evals, evecs = np.linalg.eigh(L)
    ones = np.ones(g.n) / math.sqrt(g.n)
    idx = 1 if abs(float(evecs[:, 0] @ ones)) >= ONES_CORRELATION else 0
    gap = float(evals[idx + 1] - evals[idx]) if idx + 1 < g.n else math.inf
    return Fiedler(float(evals[idx]), evecs[:, idx], gap, float(evals[-1] - evals[idx]), evals)


def sparse_fiedler(g: EdgeArrays, signed: bool, k: int = 4) -> Fiedler:
    """Smallest eigenvalues by Lanczos; the eigenvalue is the reference."""
    import scipy.sparse.linalg as sla

    L = sparse_laplacian(g, signed)
    n = g.n
    if signed:
        A = L
    else:
        shift = 4.0 * float(abs(L).sum(axis=1).max()) + 1.0
        A = sla.LinearOperator(
            (n, n), dtype=np.float64,
            matvec=lambda x: L @ x + (shift / n) * x.sum(),
        )
    v0 = np.random.default_rng(12345).uniform(-1.0, 1.0, size=n)
    evals, evecs = sla.eigsh(A, k=k, which="SA", tol=1e-12, ncv=48, maxiter=20000, v0=v0)
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    idx = 0
    if signed and abs(float(evecs[:, 0].sum())) / math.sqrt(n) >= ONES_CORRELATION:
        idx = 1
    return Fiedler(float(evals[idx]), None, float(evals[idx + 1] - evals[idx]), math.nan, evals)


def fiedler_reference(g: EdgeArrays, signed: bool) -> Fiedler:
    return dense_fiedler(g, signed) if g.n <= DENSE_LIMIT else sparse_fiedler(g, signed)


def bisect_signs(v: np.ndarray) -> np.ndarray | None:
    """Side vector (0 = A) of the documented sign bisection, None if degenerate."""
    v = np.asarray(v, dtype=np.float64)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    side = np.where(v >= 0.0, 0, 1).astype(np.int8)
    if side.min() == side.max():
        return None
    return side


def cut_metrics(g: EdgeArrays, side: np.ndarray) -> dict[str, float]:
    side = np.asarray(side)
    size_a = int((side == 0).sum())
    size_b = int((side == 1).sum())
    cross = side[g.i] != side[g.j]
    neg = g.w < 0
    within_a = ~cross & (side[g.i] == 0)
    within_b = ~cross & (side[g.i] == 1)
    cut = float(g.w[cross].sum())
    cut_plus = float(g.w[cross & ~neg].sum())
    minus_a = float(-g.w[within_a & neg].sum())
    minus_b = float(-g.w[within_b & neg].sum())
    signed_cut = 2.0 * cut_plus + minus_a + minus_b
    balance = 1.0 / size_a + 1.0 / size_b
    return {
        "n": g.n,
        "size_a": size_a,
        "size_b": size_b,
        "cut": cut,
        "cut_plus": cut_plus,
        "cut_minus_cross": float(-g.w[cross & neg].sum()),
        "cut_minus_within_a": minus_a,
        "cut_minus_within_b": minus_b,
        "signed_cut": signed_cut,
        "ratio_cut": cut * balance,
        "signed_ratio_cut": signed_cut * balance,
        "total_negative": float(-g.w[neg].sum()),
    }


def read_graph_file(path: str) -> EdgeArrays:
    """Minimal reader for the two formats signedcut writes."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith(("%", "#"))]
    if path.endswith(".csv"):
        if lines[0].replace(" ", "") != "i,j,w":
            raise ValueError(f"{path}: header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        i = np.array([int(r[0]) for r in rows], dtype=np.int64)
        j = np.array([int(r[1]) for r in rows], dtype=np.int64)
        n = int(max(i.max(), j.max())) + 1
    else:
        n, _, nnz = (int(t) for t in lines[0].split())
        rows = [line.split() for line in lines[1:]]
        if len(rows) != nnz:
            raise ValueError(f"{path}: {len(rows)} entries, header says {nnz}")
        r = np.array([int(x[0]) for x in rows], dtype=np.int64) - 1
        c = np.array([int(x[1]) for x in rows], dtype=np.int64) - 1
        i, j = np.minimum(r, c), np.maximum(r, c)
    w = np.array([float(x[2]) for x in rows])
    order = np.lexsort((j, i))
    return EdgeArrays(n, i[order], j[order], w[order])


def same_graph(a: EdgeArrays, b: EdgeArrays) -> bool:
    """Exact equality of vertex count, edge set and weight bits."""
    return (a.n == b.n and a.m == b.m and np.array_equal(a.i, b.i)
            and np.array_equal(a.j, b.j) and np.array_equal(a.w, b.w))
