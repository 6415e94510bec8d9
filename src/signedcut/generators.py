"""Deterministic constructors for the desk-scale example graphs.

Discrete strings (paths with unit weights and per-edge overrides), the
noisy 12-mass string, the 6-vertex cobra graph with one repulsive edge, and
the 13-vertex dumbbell of two cliques coupled by two attractive and two
repulsive edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateEdgeError, GraphError, IndexOutOfRangeError, ZeroWeightError
from .graph import SignedGraph, graph_from_arrays, graph_from_edges

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
    edges = [(i, i + 1, weights.get(i, 1.0)) for i in range(spec.n - 1)]
    return graph_from_edges(spec.n, edges)


def noisy_string(
    n: int, neg_edge: tuple[int, float], noise_amp: float, seed: int
) -> SignedGraph:
    """Unit path with one replaced edge plus symmetric uniform noise.

    The noise matrix has independent uniform(0, noise_amp) entries drawn
    from the seeded generator, a zeroed diagonal, and is symmetrized as
    (R + R^T)/2 before being added to the adjacency.  Entries that end up
    exactly zero are dropped.
    """
    if n < 3:
        raise GraphError(f"noisy string needs at least 3 vertices, got {n}")
    idx, w = int(neg_edge[0]), float(neg_edge[1])
    if not 0 <= idx < n - 1:
        raise IndexOutOfRangeError(f"edge {idx} outside [0, {n - 1})")
    if noise_amp < 0:
        raise ValueError(f"noise_amp must be >= 0, got {noise_amp}")
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = w if i == idx else 1.0
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
    edges = [
        (0, 1, 1.0),
        (0, 2, -1.0),
        (1, 3, 1.0),
        (2, 3, 1.0),
        (3, 4, 0.2),
        (4, 5, 1.0),
    ]
    return graph_from_edges(6, edges)


def dumbbell() -> SignedGraph:
    """Two complete graphs (sizes 6 and 7) joined by two attractive and two
    repulsive unit edges.

    1-based cross edges: (3,9,+1), (4,10,+1), (1,7,-1), (2,8,-1); the four
    cross weights average to zero.
    """
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            edges.append((i, j, 1.0))
    for i in range(6, 13):
        for j in range(i + 1, 13):
            edges.append((i, j, 1.0))
    edges += [(2, 8, 1.0), (3, 9, 1.0), (0, 6, -1.0), (1, 7, -1.0)]
    return graph_from_edges(13, edges)
