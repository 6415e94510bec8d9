import tracemalloc

import numpy as np
import pytest

from signedcut import (
    DENSE_MAX_DIM,
    DimensionTooLargeError,
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    StringSpec,
    ZeroWeightError,
    cobra,
    degrees,
    dumbbell,
    graph_from_edges,
    laplacian,
    noisy_string,
    nullify_negative,
    path_string,
)


class TestPathString:
    def test_single_edge(self):
        g = path_string(StringSpec(2))
        assert g == graph_from_edges(2, [(0, 1, 1.0)])

    @pytest.mark.parametrize("n", [3, 4, 20, 75])
    def test_tridiagonal_pattern(self, n):
        L = laplacian(path_string(StringSpec(n)), "standard").dense()
        expected = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        expected[0, 0] = expected[-1, -1] = 1
        np.testing.assert_array_equal(L, expected)

    def test_override(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        assert g == graph_from_edges(75, [(k, k + 1, -0.05 if k == 36 else 1.0) for k in range(74)])

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

    def test_long_string_is_built_as_arrays(self):
        """200k edges: the traced peak stays near the graph's own 4.8 MB, with no Python tuple per edge."""
        tracemalloc.start()
        try:
            g = path_string(StringSpec(200000, overrides=((99999, -0.05),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 199999 and g.edge_arrays()[2][99999] == -0.05
        assert peak < 16 * 2**20


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
        # W is diag(L) - L, for L the Laplacian's dense matrix
        L = laplacian(g).dense()
        W = np.diag(L.diagonal()) - L
        np.testing.assert_array_equal(W, W.T)
        L = laplacian(path_string(StringSpec(12, overrides=((7, -0.5),)))).dense()
        noise = W - (np.diag(L.diagonal()) - L)
        assert noise.min() >= 0.0 and noise.max() <= amp
        # the noise's diagonal is zeroed: no self-loops
        ii, jj, _ = g.edge_arrays()
        assert (ii < jj).all()

    def test_noise_couples_all_pairs(self):
        g = noisy_string(12, (7, -0.5), 1e-2, seed=3)
        assert g.m == 12 * 11 // 2

    def test_bad_edge_index(self):
        with pytest.raises(IndexOutOfRangeError):
            noisy_string(12, (11, -0.5), 1e-2, seed=0)

    @pytest.mark.parametrize("n", [2, 0])
    def test_too_short(self, n):
        with pytest.raises(GraphError) as info:
            noisy_string(n, (0, -0.5), 1e-2, seed=0)
        assert type(info.value) is GraphError
        assert str(info.value) == f"noisy string needs at least 3 vertices, got {n}"

    def test_negative_noise_amplitude(self):
        with pytest.raises(ValueError) as info:
            noisy_string(12, (7, -0.5), -1e-2, seed=0)
        assert str(info.value) == "noise_amp must be >= 0, got -0.01"

    def test_nan_noise_amplitude(self):
        with pytest.raises(ValueError) as info:
            noisy_string(12, (7, -0.5), float("nan"), seed=0)
        assert str(info.value) == "noise_amp must be >= 0, got nan"

    def test_infinite_noise_amplitude(self):
        with pytest.raises(ValueError) as info:
            noisy_string(12, (7, -0.5), float("inf"), seed=0)
        assert str(info.value) == "noise_amp must be finite, got inf"

    def test_negative_seed(self):
        with pytest.raises(ValueError) as info:
            noisy_string(12, (7, -0.5), 1e-2, seed=-1)
        assert str(info.value) == "seed must be >= 0, got -1"

    @pytest.mark.parametrize("n", [DENSE_MAX_DIM + 1, 2**20])
    def test_above_the_dense_threshold_raises_before_allocating(self, n):
        """Every pair gets noise: an n-by-n build, refused above the dense threshold."""
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLargeError) as info:
                noisy_string(n, (7, -0.5), 1e-2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"noisy string is dense: n={n} exceeds dense threshold {DENSE_MAX_DIM}"
        assert peak < 2**20


class TestCobra:
    def test_adjacency(self):
        expected = np.zeros((6, 6))
        for i, j, w in [(0, 1, 1), (0, 2, -1), (1, 3, 1), (2, 3, 1), (3, 4, 0.2), (4, 5, 1)]:
            expected[i, j] = expected[j, i] = w
        L = laplacian(cobra()).dense()
        np.testing.assert_array_equal(np.diag(L.diagonal()) - L, expected)

    def test_signed_degrees(self):
        np.testing.assert_allclose(
            degrees(cobra()), [0, 2, 0, 2.2, 1.2, 1]
        )

    def test_nullified_has_five_edges(self):
        assert nullify_negative(cobra()).m == 5


class TestDumbbell:
    def test_edge_count(self):
        assert dumbbell().m == 15 + 21 + 4

    def test_cross_edges_average_to_zero(self):
        ii, jj, ww = dumbbell().edge_arrays()
        cross = ww[(ii < 6) & (jj >= 6)].tolist()
        assert len(cross) == 4
        assert sum(cross) == 0.0

    def test_within_clique_weights_are_unit(self):
        ii, jj, ww = dumbbell().edge_arrays()
        assert (ww[(ii < 6) == (jj < 6)] == 1.0).all()

    def test_negative_edges_are_1_7_and_2_8(self):
        ii, jj, ww = dumbbell().edge_arrays()
        negs = sorted(zip(ii[ww < 0].tolist(), jj[ww < 0].tolist()))
        assert negs == [(0, 6), (1, 7)]
