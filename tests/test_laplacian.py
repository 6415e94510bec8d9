import tracemalloc
import warnings

import numpy as np
import pytest

from signedcut import (
    DimensionMismatchError,
    DimensionTooLargeError,
    GraphError,
    LaplacianKind,
    StringSpec,
    cobra,
    degrees,
    dumbbell,
    graph_from_arrays,
    graph_from_edges,
    laplacian,
    negate_weights,
    noisy_string,
    path_string,
)

from test_graph import random_graph


def edge_sum_quadratic(g, x, signed):
    """Independent oracle: sum the quadratic form edge by edge."""
    total = 0.0
    for i, j, w in zip(*(a.tolist() for a in g.edge_arrays())):
        if signed:
            total += abs(w) * (x[i] - np.sign(w) * x[j]) ** 2
        else:
            total += w * (x[i] - x[j]) ** 2
    return total


EXAMPLES = [
    path_string(StringSpec(3)),
    cobra(),
    dumbbell(),
    noisy_string(12, (7, -0.5), 1e-2, seed=0),
]


def test_unit_path_dense_form():
    op = laplacian(path_string(StringSpec(3)), LaplacianKind.STANDARD)
    np.testing.assert_array_equal(
        op.dense(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    )


def test_single_negative_edge_standard():
    g = graph_from_edges(2, [(0, 1, -1.0)])
    op = laplacian(g, "standard")
    np.testing.assert_array_equal(op.dense(), [[-1, 1], [1, -1]])
    np.testing.assert_allclose(np.linalg.eigvalsh(op.dense()), [-2, 0], atol=1e-14)


def test_single_negative_edge_signed():
    g = graph_from_edges(2, [(0, 1, -1.0)])
    op = laplacian(g, "signed")
    np.testing.assert_array_equal(op.dense(), [[1, 1], [1, 1]])
    np.testing.assert_allclose(np.linalg.eigvalsh(op.dense()), [0, 2], atol=1e-14)


def test_matmat_agrees_with_dense():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng)
        for kind in LaplacianKind:
            op = laplacian(g, kind)
            X = rng.normal(size=(g.n, 3))
            np.testing.assert_allclose(op.matmat(X), op.dense() @ X, atol=1e-12)


def test_dense_is_diagonal_minus_adjacency_without_negative_zeros():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng)
        for kind in LaplacianKind:
            op = laplacian(g, kind)
            L = op.dense()
            ii, jj, ww = g.edge_arrays()
            np.testing.assert_array_equal(L.diagonal(), op.diagonal)
            np.testing.assert_array_equal(L[ii, jj], -ww)
            np.testing.assert_array_equal(L[jj, ii], -ww)
            # and nothing else off the diagonal
            assert np.count_nonzero(L - np.diag(L.diagonal())) == 2 * g.m
            # the entries off the edges are +0.0, as the scatter assembly wrote them
            assert not np.signbit(L[L == 0.0]).any()


def block_scatter(g, kind, X):
    """The 2-D ``np.subtract.at`` block product the column kernel replaced."""
    d = degrees(g, absolute=LaplacianKind(kind) is LaplacianKind.SIGNED)
    ii, jj, ww = g.edge_arrays()
    Y = d[:, None] * X
    if len(ww):
        np.subtract.at(Y, ii, ww[:, None] * X[jj])
        np.subtract.at(Y, jj, ww[:, None] * X[ii])
    return Y


def kernel_graphs():
    rng = np.random.default_rng(8)
    sparse = []
    for n, m in ((60, 150), (400, 1600)):
        pairs = {(min(i, j), max(i, j)) for i, j in rng.integers(0, n, size=(m, 2)).tolist() if i != j}
        sparse.append(graph_from_edges(
            n, [(i, j, float(w)) for (i, j), w in zip(sorted(pairs), rng.uniform(-2, 2, len(pairs)))]
        ))
    return [
        random_graph(rng, n_max=10),
        random_graph(rng, n_max=40),
        *sparse,
        graph_from_edges(12, [(0, 3, 1.5), (3, 5, -0.7), (1, 5, 2.0), (0, 5, -1.1)]),
        graph_from_edges(9, [(0, j, (-1.0) ** j * j / 3) for j in range(1, 9)]),
        graph_from_edges(5, []),
    ]


def kernel_operands(rng, n):
    yield rng.normal(size=n)
    for k in (1, 3, 7):
        C = rng.normal(size=(n, k))
        yield C
        yield np.asfortranarray(C)
        yield rng.normal(size=(n, 2 * k))[:, ::2]


def test_column_kernel_matches_block_scatter_bitwise():
    rng = np.random.default_rng(9)
    for g in kernel_graphs():
        for kind in LaplacianKind:
            op = laplacian(g, kind)
            for X in kernel_operands(rng, g.n):
                before = X.copy()
                Y = op.matmat(X)
                assert Y.shape == X.shape
                np.testing.assert_array_equal(X, before)
                X2 = X[:, None] if X.ndim == 1 else X
                want = block_scatter(g, kind, X2)
                want = want[:, 0] if X.ndim == 1 else want
                np.testing.assert_array_equal(Y, want)
                # matmul may round differently on another layout
                assert Y.flags.f_contiguous == want.flags.f_contiguous
                assert Y.flags.c_contiguous == want.flags.c_contiguous
                np.testing.assert_allclose(Y, op.dense() @ X, atol=1e-12)


def test_matmat_accepts_vectors():
    op = laplacian(cobra(), "standard")
    x = np.arange(6.0)
    assert op.matmat(x).shape == (6,)
    np.testing.assert_allclose(op.matmat(x), op.dense() @ x)


def test_dimension_mismatch():
    op = laplacian(cobra(), "standard")
    with pytest.raises(DimensionMismatchError):
        op.matmat(np.ones(5))
    with pytest.raises(DimensionMismatchError):
        x = np.ones(7)
        x @ op.matmat(x)


def test_dense_threshold():
    op = laplacian(graph_from_edges(3000, [(0, 1, 1.0)]), "standard")
    with pytest.raises(DimensionTooLargeError):
        op.dense()


@pytest.mark.parametrize("kind", ["standard", "signed"])
def test_overflowing_absolute_row_sum_is_refused(kind):
    """The star's centre, vertex 2, has plain row sum 0, but its absolute one, 2e308,
    overflows; each leaf's |a_ii| + r_i is 1e308."""
    g = graph_from_edges(5, [(2, j, w) for j, w in zip((0, 1, 3, 4), (5e307, -5e307, 5e307, -5e307))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match=r"^the Laplacian's absolute row sum at vertex 2 \(0-based\) overflows$"):
            laplacian(g, kind)


def test_operator_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng)
        for kind in LaplacianKind:
            op = laplacian(g, kind)
            x, y = rng.normal(size=(2, g.n))
            lhs, rhs = float(op.matmat(x) @ y), float(x @ op.matmat(y))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_row_sum_nullity_on_signed_graphs():
    rng = np.random.default_rng(4)
    graphs = EXAMPLES + [random_graph(rng) for _ in range(30)]
    for g in graphs:
        op = laplacian(g, "standard")
        assert np.abs(op.matmat(np.ones(g.n))).max() <= 1e-12


def test_quadratic_form_ones_vanishes():
    op = laplacian(path_string(StringSpec(3)), "standard")
    x = np.ones(3)
    assert x @ op.matmat(x) == pytest.approx(0.0, abs=1e-14)


def test_quadratic_form_edge_sum_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_graph(rng)
        std = laplacian(g, "standard")
        sgn = laplacian(g, "signed")
        for _ in range(10):
            x = rng.normal(size=g.n)
            q = x @ std.matmat(x)
            expect = edge_sum_quadratic(g, x, signed=False)
            assert q == pytest.approx(expect, rel=1e-10, abs=1e-10)
            qs = x @ sgn.matmat(x)
            expect_s = edge_sum_quadratic(g, x, signed=True)
            assert qs == pytest.approx(expect_s, rel=1e-10, abs=1e-10)


def test_shift_identity():
    """Signed minus standard Laplacian is twice the negative-strength diagonal."""
    for g in EXAMPLES:
        diff = laplacian(g, "signed").dense() - laplacian(g, "standard").dense()
        r = np.zeros(g.n)
        for i, j, w in zip(*(a.tolist() for a in g.edge_arrays())):
            if w < 0:
                r[i] += -w
                r[j] += -w
        assert np.abs(diff - 2 * np.diag(r)).max() <= 1e-14


def test_negation_duality_standard_exact():
    for g in EXAMPLES:
        lhs = laplacian(negate_weights(g), "standard").dense()
        rhs = -laplacian(g, "standard").dense()
        np.testing.assert_array_equal(lhs, rhs)


def test_negation_duality_fails_for_signed_on_cobra():
    g = cobra()
    lhs = laplacian(negate_weights(g), "signed").dense()
    rhs = -laplacian(g, "signed").dense()
    assert np.abs(lhs - rhs).max() > 1.0


def test_signed_laplacian_positive_semidefinite():
    rng = np.random.default_rng(6)
    for g in EXAMPLES + [random_graph(rng) for _ in range(30)]:
        evals = np.linalg.eigvalsh(laplacian(g, "signed").dense())
        assert evals.min() >= -1e-10


def test_standard_laplacian_psd_when_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng)
        ii, jj, ww = g.edge_arrays()
        g = graph_from_arrays(g.n, ii, jj, np.abs(ww))
        evals = np.linalg.eigvalsh(laplacian(g, "standard").dense())
        assert evals.min() >= -1e-10


def test_edgeless_graph_is_zero_operator():
    g = graph_from_edges(4, [])
    for kind in LaplacianKind:
        op = laplacian(g, kind)
        np.testing.assert_array_equal(op.dense(), np.zeros((4, 4)))


def test_degree_diagonal_matches_dense():
    for g in EXAMPLES:
        np.testing.assert_allclose(
            np.diag(laplacian(g, "standard").dense()), degrees(g)
        )
        np.testing.assert_allclose(
            np.diag(laplacian(g, "signed").dense()), degrees(g, absolute=True)
        )


def test_only_the_standard_kind_deflates_ones():
    """Ones is a null vector of every standard Laplacian; the signed kind keeps its whole spectrum."""
    assert LaplacianKind.STANDARD.deflates_ones
    assert not LaplacianKind.SIGNED.deflates_ones


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_operator_keeps_no_copy_of_the_edges(kind):
    """The operator holds its diagonal and radii, 2n floats; the edges stay the graph's."""
    n = 20000
    v = np.arange(n)
    i, j = np.tile(v, 6), np.concatenate([(v + d) % n for d in range(1, 7)])
    g = graph_from_arrays(n, i, j, np.random.default_rng(0).uniform(-1.0, 1.0, len(i)))
    tracemalloc.start()
    try:
        op = laplacian(g, kind)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a doubled (i, j, w) copy would be 48 bytes per edge
    assert held <= 8 * g.m
    assert op.matmat(np.ones(n)).shape == (n,)
