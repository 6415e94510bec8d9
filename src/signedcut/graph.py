"""Signed-graph data model: construction, degrees, and weight transforms.

A :class:`SignedGraph` stores an undirected weighted graph whose weights may
be negative as three read-only arrays ``(i, j, w)``: edges in the strict
upper triangle (i < j), sorted by (i, j), with no duplicates, self-loops, or
zero weights, so equality, hashing, and serialization are deterministic.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    NonfiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)

# One (i, j, w) edge record: the parse target of edge input and graph files.
EDGE_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("w", np.float64)])


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Vertex count plus canonical symmetric weighted edge arrays (i, j, w).

    Construct through :func:`graph_from_edges` or :func:`graph_from_arrays`,
    which canonicalize and validate arbitrary edge input; the constructor
    trusts its arrays and makes them read-only.  The graph has no dense
    form: its Laplacian operator's ``dense`` holds -W off the diagonal.
    """

    n: int
    _arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __post_init__(self):
        for a in self._arrays:
            a.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self._arrays, other._arrays))

    def __hash__(self) -> int:
        return hash((self.n, *(a.tobytes() for a in self._arrays)))

    @property
    def m(self) -> int:
        return len(self._arrays[2])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (i, j, w) as read-only numpy arrays."""
        return self._arrays


def graph_from_edges(n: int, edges: Iterable[Sequence]) -> SignedGraph:
    """Build a canonical :class:`SignedGraph` from (i, j, w) triples.

    See :func:`graph_from_arrays` for the canonicalization and the checks.
    """
    t = np.fromiter(map(tuple, edges), dtype=EDGE_DTYPE)
    return graph_from_arrays(n, t["i"], t["j"], t["w"])


def graph_from_arrays(n: int, i, j, w) -> SignedGraph:
    """Build a canonical :class:`SignedGraph` from index and weight arrays.

    Indices are canonicalized to (min, max) order and the edges are sorted.
    Raises on out-of-range indices, self-loops, nonfinite or zero weights,
    and duplicate pairs (after canonicalization).  The first faulty entry
    in input order is reported, with the first of those checks it fails.
    The inputs are only read; besides them and the result, at most three
    index arrays of their length are alive at once.
    """
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise IndexOutOfRangeError(f"vertex count must be a positive integer, got {n!r}")
    n = int(n)
    i, j, w = np.asarray(i, np.intp), np.asarray(j, np.intp), np.asarray(w, np.float64)
    if not (i.ndim == j.ndim == w.ndim == 1 and len(i) == len(j) == len(w)):
        raise GraphError(
            f"i, j, w must be 1-D and of one length, got shapes {i.shape}, {j.shape}, {w.shape}"
        )
    fault = (i < 0) | (j < 0) | (i >= n) | (j >= n) | (i == j) | ~np.isfinite(w) | (w == 0.0)
    key = np.minimum(i, j)
    key *= n
    key += np.maximum(i, j)
    # a flagged in-range entry repeats an earlier pair, or shares its key
    # with an earlier out-of-range entry, which is then the fault reported
    order, key, repeat = sorted_repeats(key)
    fault |= repeat
    if not fault.any():
        w = w[order]
        del order
        hi = np.remainder(key, n)
        return SignedGraph(n, (np.floor_divide(key, n, out=key), hi, w))
    k = int(fault.argmax())
    i, j, w = int(i[k]), int(j[k]), float(w[k])
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"edge ({i}, {j}) outside [0, {n})")
    if i == j:
        raise SelfLoopError(f"self-loop at vertex {i}")
    if not math.isfinite(w):
        raise NonfiniteWeightError(f"edge ({i}, {j}) has nonfinite weight {w!r}")
    if w == 0.0:
        raise ZeroWeightError(f"edge ({i}, {j}) has zero weight")
    raise DuplicateEdgeError(f"duplicate edge ({min(i, j)}, {max(i, j)})")


def sorted_repeats(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sorting order of ``key``, the sorted keys, and a flag on
    each entry (in input order) whose key equals an earlier entry's.

    The stable sort puts each later entry of a key right after the first.
    ``key`` is only read; the caller may drop it to free its memory.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = key[1:] == key[:-1]
    return order, key, repeat


def degrees(g: SignedGraph, *, absolute: bool = False) -> np.ndarray:
    """Row sums of the adjacency matrix, plain or, with ``absolute``, in absolute value.

    Isolated vertices get 0 either way.
    """
    ii, jj, ww = g.edge_arrays()
    vals = np.abs(ww) if absolute else ww
    d = np.zeros(g.n)
    np.add.at(d, ii, vals)
    np.add.at(d, jj, vals)
    return d


def negate_weights(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every weight; topology unchanged. An involution."""
    ii, jj, ww = g.edge_arrays()
    return SignedGraph(g.n, (ii, jj, -ww))


def nullify_negative(g: SignedGraph) -> SignedGraph:
    """Remove every negative edge, keeping positive edges unchanged."""
    ii, jj, ww = g.edge_arrays()
    keep = ww > 0
    return SignedGraph(g.n, (ii[keep], jj[keep], ww[keep]))


def scale_weights(g: SignedGraph, c: float) -> SignedGraph:
    """Multiply every weight by a nonzero constant.

    A product that underflows to zero or overflows raises, as
    :func:`graph_from_arrays` does for such a weight.
    """
    c = float(c)
    if c == 0.0 or not math.isfinite(c):
        raise ZeroWeightError(f"scale factor must be finite and nonzero, got {c!r}")
    ii, jj, ww = g.edge_arrays()
    with np.errstate(over="ignore"):
        return graph_from_arrays(g.n, ii, jj, c * ww)


def connected_in_absolute_value(g: SignedGraph) -> bool:
    """True when the graph is connected ignoring weight signs.

    Min-label hooking with pointer jumping: every root adjacent to a
    smaller root hooks onto the smallest such one, then every vertex jumps
    to its root.  Each round at least halves the roots of a connected
    component, so O(log n) rounds of O(n + m) array work suffice.
    """
    ii, jj, _ = g.edge_arrays()
    root = np.arange(g.n)
    while True:
        ri, rj = root[ii], root[jj]
        cross = ri != rj
        if not cross.any():
            break
        np.minimum.at(root, np.maximum(ri, rj)[cross], np.minimum(ri, rj)[cross])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return bool((root == 0).all())
