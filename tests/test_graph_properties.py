"""Property tests for the graph layer on generated edge lists.

Each array operation is checked against a per-entry reference written out
here: the canonicalizing loop for graph_from_edges (result, error class and
message), a union-find for the connectivity check, and the tuple formulas
for the weight transforms.  File round trips must reproduce every weight bit.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedcut import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NonfiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
    connected_in_absolute_value,
    graph_from_edges,
    load_graph,
    negate_weights,
    nullify_negative,
    save_graph,
    scale_weights,
)

AWKWARD = [1 / 3, 0.1 + 0.2, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
           1 + 2**-52, -3.0000000000000004, 2.0**-1074 * 7]
WEIGHTS = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda w: w != 0.0),
)


def reference_canonical(n, edges):
    """The per-entry canonicalizing loop, with its checks in their order."""
    canonical, seen = [], set()
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"edge ({i}, {j}) outside [0, {n})")
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if not math.isfinite(w):
            raise NonfiniteWeightError(f"edge ({i}, {j}) has nonfinite weight {w!r}")
        if w == 0.0:
            raise ZeroWeightError(f"edge ({i}, {j}) has zero weight")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        canonical.append((i, j, w))
    return tuple(sorted(canonical, key=lambda e: (e[0], e[1])))


def reference_connected(n, edges):
    """Union-find with path halving."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n
    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
    return components == 1


def weight_bits(edges):
    return np.array([w for _, _, w in edges], dtype=np.float64).tobytes()


@st.composite
def edge_lists(draw, max_n=12):
    """n in [1, max_n] and distinct pairs in random order, each either way round.

    Isolated vertices, n = 1 and edgeless graphs all occur.
    """
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b, draw(WEIGHTS)))
    return n, edges


@st.composite
def permuted_paths(draw):
    """A long path under a random vertex labelling, perhaps cut or with chords.

    Long paths need the most hooking rounds in the connectivity check.
    """
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n).tolist()
    edges = [(perm[k], perm[k + 1], 1.0) for k in range(n - 1)]
    if draw(st.booleans()):
        del edges[draw(st.integers(0, n - 2))]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    have = {(min(i, j), max(i, j)) for i, j, _ in edges}
    for i, j in extra:
        if i != j and (min(i, j), max(i, j)) not in have:
            have.add((min(i, j), max(i, j)))
            edges.append((i, j, -0.5))
    return n, [edges[k] for k in rng.permutation(len(edges))]


@st.composite
def faulty_edge_lists(draw):
    """A valid edge list with one to three bad entries put in at random places."""
    n, edges = draw(edge_lists(max_n=8))
    edges = list(edges)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["range", "loop", "nonfinite", "zero", "duplicate"]))
        v = draw(st.integers(0, n - 1))
        if kind == "range":
            bad = (draw(st.sampled_from([-3, -1, n, n + 2])), v, 1.0)
            if draw(st.booleans()):
                bad = (bad[1], bad[0], bad[2])
        elif kind == "loop":
            bad = (v, v, draw(WEIGHTS))
        elif kind == "nonfinite" and n > 1:
            bad = (v, (v + 1) % n, draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        elif kind == "zero" and n > 1:
            bad = (v, (v + 1) % n, draw(st.sampled_from([0.0, -0.0])))
        elif kind == "duplicate" and edges:
            i, j, _ = draw(st.sampled_from(edges))
            bad = (j, i, draw(WEIGHTS)) if draw(st.booleans()) else (i, j, draw(WEIGHTS))
        else:
            bad = (v, v, 1.0)
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_graph_from_edges_matches_reference(case):
    n, edges = case
    g = graph_from_edges(n, iter(edges))
    expected = reference_canonical(n, edges)
    assert g.n == n and g.m == len(expected)
    assert g.edges == expected
    assert weight_bits(g.edges) == weight_bits(expected)
    ii, jj, ww = g.edge_arrays()
    assert ii.dtype == jj.dtype == np.intp and ww.dtype == np.float64
    assert (ii < jj).all()


@settings(max_examples=200, deadline=None)
@given(faulty_edge_lists())
def test_faulty_input_raises_as_reference(case):
    n, edges = case
    try:
        reference_canonical(n, edges)
    except Exception as exc:  # any class: the two are compared below
        expected = exc
    else:
        raise AssertionError("the generator must inject a fault")
    try:
        graph_from_edges(n, edges)
    except Exception as exc:
        assert type(exc) is type(expected)
        assert str(exc) == str(expected)
    else:
        raise AssertionError(f"no error; expected {expected!r}")


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=30))
def test_save_load_round_trip_is_bit_exact(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("g.mtx", "g.csv"):
            path = os.path.join(tmp, name)
            save_graph(g, path)
            back = load_graph(path)
            assert back == g and hash(back) == hash(g)
            for a, b in zip(back.edge_arrays(), g.edge_arrays()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0.0))
def test_transforms_match_tuple_formulas(case, c):
    n, edges = case
    g = graph_from_edges(n, edges)
    negated = tuple((i, j, -w) for i, j, w in g.edges)
    positive = tuple(e for e in g.edges if e[2] > 0)
    scaled = tuple((i, j, c * w) for i, j, w in g.edges)
    cases = [(negate_weights(g), negated), (nullify_negative(g), positive)]
    # a product that leaves the float range must raise, for the first such edge
    fault = next(((i, j, w) for i, j, w in scaled if w == 0.0 or not math.isfinite(w)), None)
    if fault is None:
        cases.append((scale_weights(g, c), scaled))
    else:
        i, j, w = fault
        error, message = ((ZeroWeightError, f"edge ({i}, {j}) has zero weight") if w == 0.0 else
                          (NonfiniteWeightError, f"edge ({i}, {j}) has nonfinite weight {w!r}"))
        with pytest.raises(error) as info:
            scale_weights(g, c)
        assert str(info.value) == message
    for graph, expected in cases:
        assert graph.n == n
        assert graph.edges == expected
        assert weight_bits(graph.edges) == weight_bits(expected)
    assert negate_weights(negate_weights(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.one_of(edge_lists(), permuted_paths()))
def test_connectivity_matches_union_find(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    assert connected_in_absolute_value(g) == reference_connected(n, edges)
