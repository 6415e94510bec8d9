import numpy as np
import pytest

from signedcut import (
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    StringSpec,
    ZeroWeightError,
    cobra,
    degrees,
    dumbbell,
    laplacian,
    noisy_string,
    nullify_negative,
    path_string,
)


class TestPathString:
    def test_single_edge(self):
        g = path_string(StringSpec(2))
        assert g.edges == ((0, 1, 1.0),)

    @pytest.mark.parametrize("n", [3, 4, 20, 75])
    def test_tridiagonal_pattern(self, n):
        L = laplacian(path_string(StringSpec(n)), "standard").dense()
        expected = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        expected[0, 0] = expected[-1, -1] = 1
        np.testing.assert_array_equal(L, expected)

    def test_override(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        weights = {(i, j): w for i, j, w in g.edges}
        assert weights[(36, 37)] == -0.05
        assert g.m == 74
        assert sum(1 for w in weights.values() if w != 1.0) == 1

    def test_bad_override_index(self):
        with pytest.raises(IndexOutOfRangeError):
            path_string(StringSpec(5, overrides=((4, 2.0),)))
        with pytest.raises(DuplicateEdgeError):
            path_string(StringSpec(5, overrides=((0, 1.0), (0, 2.0))))

    def test_zero_override_weight(self):
        with pytest.raises(ZeroWeightError):
            path_string(StringSpec(5, overrides=((1, 0.0),)))

    def test_too_short(self):
        with pytest.raises(GraphError):
            path_string(StringSpec(1))


class TestNoisyString:
    def test_zero_noise_is_plain_replaced_path(self):
        g = noisy_string(12, (7, -0.5), 0.0, seed=5)
        assert g == path_string(StringSpec(12, overrides=((7, -0.5),)))

    def test_same_seed_bit_exact(self):
        a = noisy_string(12, (7, -0.5), 1e-2, seed=9)
        b = noisy_string(12, (7, -0.5), 1e-2, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = noisy_string(12, (7, -0.5), 1e-2, seed=0)
        b = noisy_string(12, (7, -0.5), 1e-2, seed=1)
        assert a != b

    def test_noise_is_symmetric_and_bounded(self):
        amp = 1e-2
        g = noisy_string(12, (7, -0.5), amp, seed=3)
        W = g.dense_adjacency()
        np.testing.assert_array_equal(W, W.T)
        base = path_string(StringSpec(12, overrides=((7, -0.5),))).dense_adjacency()
        noise = W - base
        assert noise.min() >= 0.0 and noise.max() <= amp
        assert np.abs(np.diag(W)).max() == 0.0

    def test_noise_couples_all_pairs(self):
        g = noisy_string(12, (7, -0.5), 1e-2, seed=3)
        assert g.m == 12 * 11 // 2

    def test_bad_edge_index(self):
        with pytest.raises(IndexOutOfRangeError):
            noisy_string(12, (11, -0.5), 1e-2, seed=0)


class TestCobra:
    def test_adjacency(self):
        expected = np.zeros((6, 6))
        for i, j, w in [(0, 1, 1), (0, 2, -1), (1, 3, 1), (2, 3, 1), (3, 4, 0.2), (4, 5, 1)]:
            expected[i, j] = expected[j, i] = w
        np.testing.assert_array_equal(cobra().dense_adjacency(), expected)

    def test_signed_degrees(self):
        np.testing.assert_allclose(
            degrees(cobra(), "signed-sum").d, [0, 2, 0, 2.2, 1.2, 1]
        )

    def test_nullified_has_five_edges(self):
        assert nullify_negative(cobra()).m == 5


class TestDumbbell:
    def test_edge_count(self):
        assert dumbbell().m == 15 + 21 + 4

    def test_cross_edges_average_to_zero(self):
        g = dumbbell()
        cross = [w for i, j, w in g.edges if i < 6 <= j]
        assert len(cross) == 4
        assert sum(cross) == 0.0

    def test_within_clique_weights_are_unit(self):
        g = dumbbell()
        for i, j, w in g.edges:
            if (i < 6 and j < 6) or (i >= 6 and j >= 6):
                assert w == 1.0

    def test_negative_edges_are_1_7_and_2_8(self):
        g = dumbbell()
        negs = sorted((i, j) for i, j, w in g.edges if w < 0)
        assert negs == [(0, 6), (1, 7)]
