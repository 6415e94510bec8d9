import numpy as np
import pytest

from signedcut import (
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    NonfiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
    cobra,
    connected_in_absolute_value,
    degrees,
    graph_from_arrays,
    graph_from_edges,
    laplacian,
    negate_weights,
    nullify_negative,
    scale_weights,
)


def random_graph(rng, n_max=40, density=0.35):
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < density:
                edges.append((i, j, float(rng.uniform(-2, 2)) or 1.0))
    return graph_from_edges(n, edges)


class TestConstruction:
    def test_smallest_path(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert g.n == 3
        assert [a.tolist() for a in g.edge_arrays()] == [[0, 1], [1, 2], [1.0, 1.0]]

    def test_canonicalizes_order_and_sorts(self):
        g = graph_from_edges(4, [(3, 1, 2.0), (1, 0, -1.0)])
        assert [a.tolist() for a in g.edge_arrays()] == [[0, 1], [1, 3], [-1.0, 2.0]]

    def test_cobra_matches_published_adjacency(self):
        g = cobra()
        expected = np.array(
            [
                [0, 1, -1, 0, 0, 0],
                [1, 0, 0, 1, 0, 0],
                [-1, 0, 0, 1, 0, 0],
                [0, 1, 1, 0, 0.2, 0],
                [0, 0, 0, 0.2, 0, 1],
                [0, 0, 0, 0, 1, 0],
            ]
        )
        # W is diag(L) - L, for L the Laplacian's dense matrix
        L = laplacian(g).dense()
        np.testing.assert_array_equal(np.diag(L.diagonal()) - L, expected)

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(DuplicateEdgeError):
            graph_from_edges(2, [(0, 1, 1), (1, 0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            graph_from_edges(3, [(1, 1, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            graph_from_edges(3, [(0, 3, 1.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeightError):
            graph_from_edges(3, [(0, 1, 0.0)])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(NonfiniteWeightError):
            graph_from_edges(3, [(0, 1, float("nan"))])

    def test_from_arrays_matches_from_edges(self):
        edges = [(3, 1, 2.0), (1, 0, -1.0), (2, 4, 0.5)]
        i, j, w = (np.array(c) for c in zip(*edges))
        assert graph_from_arrays(5, i, j, w) == graph_from_edges(5, edges)

    @pytest.mark.parametrize("i, j, w", [([0], [1, 2], [1.0, 1.0]), ([[0, 1]], [[1, 2]], [[1.0, 1.0]])])
    def test_from_arrays_rejects_mismatched_shapes(self, i, j, w):
        with pytest.raises(GraphError):
            graph_from_arrays(3, i, j, w)

    @pytest.mark.parametrize("n", [0, -3, 2.0, np.int64(0)])
    def test_from_arrays_rejects_a_vertex_count_that_is_not_a_positive_integer(self, n):
        with pytest.raises(IndexOutOfRangeError) as info:
            graph_from_arrays(n, [], [], [])
        assert str(info.value) == f"vertex count must be a positive integer, got {n!r}"

    def test_isolated_vertices_allowed(self):
        g = graph_from_edges(5, [(0, 1, 1.0)])
        assert degrees(g).tolist() == [1, 1, 0, 0, 0]


class TestDegrees:
    def test_unit_path_signed_sum(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        np.testing.assert_array_equal(degrees(g), [1, 2, 1])

    def test_mixed_signs(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, -1)])
        np.testing.assert_array_equal(degrees(g), [1, 0, -1])
        np.testing.assert_array_equal(degrees(g, absolute=True), [1, 2, 1])

    def test_cobra_signed_sum(self):
        np.testing.assert_allclose(
            degrees(cobra()), [0, 2, 0, 2.2, 1.2, 1]
        )

    def test_negation_flips_signed_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_graph(rng)
            np.testing.assert_array_equal(
                degrees(negate_weights(g)),
                -degrees(g),
            )

    def test_absolute_dominates_signed(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = random_graph(rng)
            assert (
                degrees(g, absolute=True) >= np.abs(degrees(g)) - 1e-12
            ).all()


class TestWeightTransforms:
    def test_negate_unit_path(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert negate_weights(g) == graph_from_edges(3, [(0, 1, -1.0), (1, 2, -1.0)])

    def test_negate_cobra_flips_repulsive_edge(self):
        # off the diagonal, -L is W
        W = -laplacian(negate_weights(cobra())).dense()
        assert W[0, 2] == 1.0
        assert W[0, 1] == -1.0

    def test_double_negation_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_graph(rng)
            back = negate_weights(negate_weights(g))
            assert back == g and hash(back) == hash(g)

    def test_nullify_cobra_drops_one_edge(self):
        g = nullify_negative(cobra())
        assert g.m == 6 - 1
        assert (g.edge_arrays()[2] > 0).all()

    def test_nullify_fixed_point_on_positive_graph(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 2)])
        assert nullify_negative(g) == g

    def test_nullify_all_negative_gives_edgeless(self):
        g = graph_from_edges(3, [(0, 1, -1), (1, 2, -2)])
        assert nullify_negative(g).m == 0

    def test_nullify_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            g = random_graph(rng)
            once = nullify_negative(g)
            assert nullify_negative(once) == once

    def test_scale_rejects_zero(self):
        with pytest.raises(ZeroWeightError):
            scale_weights(cobra(), 0.0)

    def test_scale(self):
        ii, jj, ww = cobra().edge_arrays()
        assert scale_weights(cobra(), 2.0) == graph_from_arrays(6, ii, jj, 2.0 * ww)

    @pytest.mark.parametrize("c, error, message", [
        (1e-300, ZeroWeightError, "edge (0, 1) has zero weight"),
        (1e300, NonfiniteWeightError, "edge (1, 2) has nonfinite weight inf"),
    ])
    def test_scale_rejects_products_out_of_range(self, c, error, message):
        g = graph_from_edges(3, [(0, 1, 1e-300), (1, 2, 1e300)])
        with pytest.raises(error) as info:
            scale_weights(g, c)
        assert str(info.value) == message


class TestConnectivity:
    def test_connected_ignores_signs(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, -1)])
        assert connected_in_absolute_value(g)

    def test_disconnected(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)])
        assert not connected_in_absolute_value(g)

    def test_isolated_vertex_disconnects(self):
        g = graph_from_edges(3, [(0, 1, 1)])
        assert not connected_in_absolute_value(g)


class TestImmutability:
    def test_edge_arrays_are_read_only(self):
        g = cobra()
        for graph in (g, negate_weights(g), nullify_negative(g), scale_weights(g, 2.0)):
            for a in graph.edge_arrays():
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = a[0]
        assert g == cobra()

    def test_attributes_cannot_be_set(self):
        g = cobra()
        with pytest.raises(AttributeError):
            g.n = 7
        assert g.n == 6

    def test_equal_graphs_hash_equal(self):
        a = graph_from_edges(4, [(3, 1, 2.0), (1, 0, -1.0)])
        b = graph_from_edges(4, [(0, 1, -1.0), (1, 3, 2.0)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != graph_from_edges(5, [(0, 1, -1.0), (1, 3, 2.0)])
        assert a != graph_from_edges(4, [(0, 1, -1.0), (1, 3, 2.5)])
        assert a != graph_from_edges(4, [(0, 1, -1.0), (1, 2, 2.0)])
        assert a != a.edge_arrays()
