"""Deterministic constructors for the desk-scale example graphs.

Discrete strings (paths with unit weights and per-edge overrides), the
noisy 12-mass string, the 6-vertex cobra graph with one repulsive edge, and
the 13-vertex dumbbell of two cliques coupled by two attractive and two
repulsive edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    ZeroWeightError,
)
from .graph import SignedGraph, graph_from_arrays
from .laplacian import DENSE_MAX_DIM

# Defaults used by the figure-reproduction demos: a 75-mass string with the
# special edge between (1-based) vertices 37 and 38.
DEFAULT_STRING_LENGTH = 75
DEFAULT_SPECIAL_EDGE = 36  # 0-based edge index (joins vertices 36 and 37)
WEAK_LINK_WEIGHT = 0.05
NEGATIVE_EDGE_WEIGHT = -0.05


@dataclass(frozen=True)
class StringSpec:
    """Path of n vertices with unit weights except listed edge overrides.

    Edge index i names the edge between vertices i and i+1 (0-based).
    """

    n: int
    overrides: tuple[tuple[int, float], ...] = ()


def path_string(spec: StringSpec) -> SignedGraph:
    """Discrete string: a path with unit weights and optional overrides."""
    if spec.n < 2:
        raise GraphError(f"a string needs at least 2 vertices, got {spec.n}")
    weights = {}
    for idx, w in spec.overrides:
        idx = int(idx)
        if not 0 <= idx < spec.n - 1:
            raise IndexOutOfRangeError(
                f"override edge {idx} outside [0, {spec.n - 1})"
            )
        if idx in weights:
            raise DuplicateEdgeError(f"override edge {idx} listed twice")
        if float(w) == 0.0:
            raise ZeroWeightError(f"override edge {idx} has zero weight")
        weights[idx] = float(w)
    i, w = np.arange(spec.n - 1), np.ones(spec.n - 1)
    w[list(weights)] = list(weights.values())
    return graph_from_arrays(spec.n, i, i + 1, w)


def noisy_string(
    n: int, neg_edge: tuple[int, float], noise_amp: float, seed: int
) -> SignedGraph:
    """Unit path with one replaced edge plus symmetric uniform noise.

    The noise matrix has independent uniform(0, noise_amp) entries drawn
    from the seeded generator, a zeroed diagonal, and is symmetrized as
    (R + R^T)/2 before being added to the adjacency.  Entries that end up
    exactly zero are dropped.  The construction is dense, every pair gets
    noise, so n is at most DENSE_MAX_DIM; noise_amp is finite and >= 0,
    and seed is >= 0.
    """
    if n < 3:
        raise GraphError(f"noisy string needs at least 3 vertices, got {n}")
    if n > DENSE_MAX_DIM:
        raise DimensionTooLargeError(
            f"noisy string is dense: n={n} exceeds dense threshold {DENSE_MAX_DIM}"
        )
    idx, w = int(neg_edge[0]), float(neg_edge[1])
    if not 0 <= idx < n - 1:
        raise IndexOutOfRangeError(f"edge {idx} outside [0, {n - 1})")
    if not noise_amp >= 0:
        raise ValueError(f"noise_amp must be >= 0, got {noise_amp}")
    if not np.isfinite(noise_amp):
        raise ValueError(f"noise_amp must be finite, got {noise_amp}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    i = np.arange(n - 1)
    W = np.zeros((n, n))
    W[i, i + 1] = W[i + 1, i] = np.where(i == idx, w, 1.0)
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.0, noise_amp, size=(n, n)) if noise_amp > 0 else np.zeros((n, n))
    np.fill_diagonal(R, 0.0)
    W = W + (R + R.T) / 2.0
    i, j = np.triu_indices(n, k=1)
    keep = W[i, j] != 0.0
    return graph_from_arrays(n, i[keep], j[keep], W[i, j][keep])


def cobra() -> SignedGraph:
    """Six-vertex graph with one repulsive edge and a weakly attached tail.

    1-based edges: (1,2,+1), (1,3,-1), (2,4,+1), (3,4,+1), (4,5,+0.2),
    (5,6,+1).
    """
    return graph_from_arrays(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 3, 4, 5],
                             [1.0, -1.0, 1.0, 1.0, 0.2, 1.0])


def dumbbell() -> SignedGraph:
    """Two complete graphs (sizes 6 and 7) joined by two attractive and two
    repulsive unit edges.

    1-based cross edges: (3,9,+1), (4,10,+1), (1,7,-1), (2,8,-1); the four
    cross weights average to zero.
    """
    a, b = np.triu_indices(6, 1)
    c, d = np.triu_indices(7, 1)
    i = np.concatenate([a, c + 6, [2, 3, 0, 1]])
    j = np.concatenate([b, d + 6, [8, 9, 6, 7]])
    w = np.concatenate([np.ones(len(a) + len(c)), [1.0, 1.0, -1.0, -1.0]])
    return graph_from_arrays(13, i, j, w)
