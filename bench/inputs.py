"""Seeded input graphs for the benchmark.

Random signed graphs are connected by construction: a spanning path over a
random permutation of the vertices, plus distinct uniform random pairs, with
weights drawn from U(-1, 1) without zero.  Everything here is a pure
function of its arguments, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """Upper-triangle edge list (i < j), sorted by (i, j)."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    @property
    def m(self) -> int:
        return len(self.w)

    def triples(self):
        """Edges as Python (i, j, w) tuples, the input form of graph_from_edges."""
        return zip(self.i.tolist(), self.j.tolist(), self.w.tolist())

    def permuted(self, perm: np.ndarray) -> "EdgeArrays":
        """Relabel vertex v as perm[v]; the spectrum is unchanged."""
        a, b = perm[self.i], perm[self.j]
        return _canonical(self.n, np.minimum(a, b), np.maximum(a, b), self.w)


def _canonical(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> EdgeArrays:
    order = np.lexsort((j, i))
    return EdgeArrays(n, i[order].astype(np.int64), j[order].astype(np.int64), w[order])


def _nonzero_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    w = rng.uniform(-1.0, 1.0, size=size)
    while True:
        zero = w == 0.0
        if not zero.any():
            return w
        w[zero] = rng.uniform(-1.0, 1.0, size=int(zero.sum()))


def random_signed_graph(n: int, m: int, seed: int) -> EdgeArrays:
    """Connected random signed graph with n vertices and m edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} vertices connectedly")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    lo = np.minimum(perm[:-1], perm[1:])
    hi = np.maximum(perm[:-1], perm[1:])
    keys = lo * n + hi
    taken = np.zeros(0, dtype=np.int64)
    while len(taken) < m - (n - 1):
        want = m - (n - 1) - len(taken)
        a = rng.integers(0, n, size=2 * want + 16)
        b = rng.integers(0, n, size=2 * want + 16)
        a, b = a[a != b], b[a != b]
        cand = np.minimum(a, b) * n + np.maximum(a, b)
        # keep the first draw of each pair, in draw order
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)]
        cand = cand[~np.isin(cand, keys) & ~np.isin(cand, taken)]
        taken = np.concatenate([taken, cand[:want]])
    keys = np.concatenate([keys, taken])
    w = _nonzero_uniform(rng, len(keys))
    return _canonical(n, keys // n, keys % n, w)


def random_sides(n: int, seed: int) -> np.ndarray:
    """Seeded two-way vertex assignment with both sides nonempty."""
    rng = np.random.default_rng(seed)
    side = rng.integers(0, 2, size=n).astype(np.int8)
    side[0], side[-1] = 0, 1
    return side
