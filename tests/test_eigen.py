import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signedcut import (
    DEFAULT_SPECIAL_EDGE,
    DEFAULT_STRING_LENGTH,
    NEGATIVE_EDGE_WEIGHT,
    BasisDegenerateError,
    DimensionTooLargeError,
    InsufficientSpectrumError,
    SolverConfig,
    Spectrum,
    StringSpec,
    dense_spectrum,
    estimate_largest_eigenvalue,
    fiedler,
    graph_from_arrays,
    graph_from_edges,
    jacobi_preconditioner,
    laplacian,
    lobpcg_lockstep,
    lobpcg_smallest,
    multilevel_preconditioner,
    nullify_negative,
    path_string,
    scale_weights,
    select_fiedler,
    truncated_iteration_study,
)

import signedcut.eigen
import signedcut.experiments
from test_cli import count_dense_eigensolves
from test_graph import random_graph


def path_eigenvalues(n):
    """Closed-form spectrum of the unit string: 2 - 2 cos(k pi / n)."""
    return 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)


def angle_between(u, v):
    return math.acos(min(1.0, abs(float(u @ v))))


def make_spectrum(values, vectors=None):
    values = np.asarray(values, dtype=float)
    k = len(values)
    if vectors is None:
        vectors = np.eye(k)
    return Spectrum(eigenvalues=values, eigenvectors=np.asarray(vectors, dtype=float))


class TestDenseSpectrum:
    def test_unit_path_n3(self):
        s = dense_spectrum(laplacian(path_string(StringSpec(3)), "standard"))
        np.testing.assert_allclose(s.eigenvalues, [0, 1, 3], atol=1e-12)

    @pytest.mark.parametrize("n", [20, 75])
    def test_unit_path_closed_form(self, n):
        s = dense_spectrum(laplacian(path_string(StringSpec(n)), "standard"))
        np.testing.assert_allclose(s.eigenvalues, path_eigenvalues(n), atol=1e-10)

    def test_signed_single_negative_edge(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        s = dense_spectrum(laplacian(g, "signed"))
        np.testing.assert_allclose(s.eigenvalues, [0, 2], atol=1e-14)
        null = s.eigenvectors[:, 0]
        assert abs(abs(null[0]) - abs(null[1])) < 1e-12 and null[0] * null[1] < 0

    def test_orthonormal_and_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "standard")
            s = dense_spectrum(op)
            gram = s.eigenvectors.T @ s.eigenvectors
            assert np.abs(gram - np.eye(s.k)).max() <= 1e-10
            assert (np.diff(s.eigenvalues) >= -1e-12).all()
            res = np.linalg.norm(op.dense() @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
            assert res.max() <= 1e-10 * max(1.0, s.eigenvalues[-1] - s.eigenvalues[0])

    def test_dense_routes_leave_solver_fields_unset(self):
        op = laplacian(path_string(StringSpec(10)), "standard")
        for s in (dense_spectrum(op), dense_spectrum(op, deflate_ones=True)):
            assert s.residual_norms is None and s.converged is None

    def test_dimension_guard(self):
        op = laplacian(graph_from_edges(2500, [(0, 1, 1.0)]), "standard")
        with pytest.raises(DimensionTooLargeError):
            dense_spectrum(op)

    def test_deflated_removes_trivial(self):
        s = dense_spectrum(laplacian(path_string(StringSpec(10)), "standard"), deflate_ones=True)
        assert s.k == 9
        np.testing.assert_allclose(s.eigenvalues, path_eigenvalues(10)[1:], atol=1e-10)
        ones = np.ones(10) / math.sqrt(10)
        assert np.abs(s.eigenvectors.T @ ones).max() <= 1e-10


def qr_route_eigenvalues(A):
    """Eigenvalues of A on the ones complement, through an explicit QR basis."""
    n = A.shape[0]
    seed_block = np.column_stack([np.ones(n) / math.sqrt(n), np.eye(n)[:, : n - 1]])
    Q, _ = np.linalg.qr(seed_block)
    H = Q[:, 1:]
    B = H.T @ (A @ H)
    return np.linalg.eigvalsh((B + B.T) / 2.0)


def component_count(g):
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    ii, jj, _ = g.edge_arrays()
    for i, j in zip(ii.tolist(), jj.tolist()):
        root[find(i)] = find(j)
    return len({find(v) for v in range(g.n)})


def deflation_inputs():
    # two components (one with a repulsive edge) plus the isolated vertex 8
    split = graph_from_edges(9, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 2, -0.3),
                                 (4, 5, 1.0), (5, 6, 1.5), (6, 7, 1.0), (4, 7, 0.7)])
    rng = np.random.default_rng(21)
    cases = [("split", split), ("edgeless", graph_from_edges(6, []))]
    cases += [(f"random-{i}", random_graph(rng)) for i in range(12)]
    cases.append(("random-sparse", random_graph(rng, n_max=200, density=0.05)))
    return [pytest.param(g, id=name) for name, g in cases]


class TestDeflatedSpectrum:
    @pytest.mark.parametrize("g", deflation_inputs())
    def test_invariants(self, g, monkeypatch):
        op = laplacian(g, "standard")
        A = op.dense()
        want = qr_route_eigenvalues(A)

        def no_qr(*args, **kwargs):
            raise AssertionError("the deflation must not run a QR factorization")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        s = dense_spectrum(op, deflate_ones=True)
        n = g.n
        assert s.k == n - 1 and s.eigenvectors.shape == (n, n - 1)
        scale = max(1.0, s.eigenvalues[-1] - s.eigenvalues[0])
        assert (np.diff(s.eigenvalues) >= 0).all()
        zeros = int((np.abs(s.eigenvalues) <= 1e-10 * scale).sum())
        assert zeros == component_count(g) - 1
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(n - 1)).max() <= 1e-12
        ones = np.ones(n)
        assert np.abs(s.eigenvectors.T @ ones).max() / math.sqrt(n) <= 1e-10
        res = np.linalg.norm(A @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert res.max() <= 1e-12 * scale
        assert np.abs(s.eigenvalues - want).max() <= 1e-12 * scale

    def test_rejects_operator_without_ones_eigenvector(self):
        g = path_string(StringSpec(20, overrides=((7, -0.5),)))
        with pytest.raises(ValueError, match="not an eigenvector"):
            dense_spectrum(laplacian(g, "signed"), deflate_ones=True)


def sparse_random_graph(seed, n, m):
    """n vertices and up to m distinct random edges, weights uniform in [-2, 2)."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, (2, m))
    keep = i != j
    key = np.unique(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep])
    return graph_from_arrays(n, key // n, key % n, rng.uniform(-2, 2, len(key)))


def repeated_eigenvalue_graphs():
    """Graphs whose spectra repeat eigenvalues, seeded random graphs, and two larger ones.

    The larger: the 75-mass string with its -0.05 edge, whose low gaps are
    small, and a 300-vertex random graph where one start vector has so
    small a share along its eigenvector that one shifted solve leaves a
    residual of 6.8e-12 times the spread (seed 17, standard kind).
    """
    triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    cases = [
        ("two-triangles-and-a-vertex",
         graph_from_edges(7, triangle + [(i + 3, j + 3, w) for i, j, w in triangle])),
        ("automorphic-triangle", graph_from_edges(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, -1.0)])),
        ("5-cycle", graph_from_edges(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])),
        ("3-cube", graph_from_edges(8, [(a, a ^ b, 1.0) for a in range(8) for b in (1, 2, 4) if a < a ^ b])),
        ("edgeless", graph_from_edges(6, [])),
    ]
    rng = np.random.default_rng(28)
    cases += [(f"random-{c}", random_graph(rng, n_max=30)) for c in range(8)]
    cases += [("string-75--0.05", path_string(StringSpec(75, overrides=((36, -0.05),)))),
              ("random-300", sparse_random_graph(17, 300, 1800))]
    return [pytest.param(g, id=name) for name, g in cases]


class TestShiftedSolveSpectrum:
    """``dense_spectrum(op, deflate_ones, k)`` returns every eigenvalue and k
    vectors; for k <= 5 the vectors come from shifted solves, and against the
    full ``eigh`` basis they must be as good."""

    @pytest.mark.parametrize("deflate_ones", [False, True])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    @pytest.mark.parametrize("g", repeated_eigenvalue_graphs())
    def test_matches_the_full_eigenbasis(self, g, kind, deflate_ones):
        op = laplacian(g, kind)
        A = op.dense()
        try:
            oracle = dense_spectrum(op, deflate_ones)
        except ValueError:
            with pytest.raises(ValueError, match="not an eigenvector"):
                dense_spectrum(op, deflate_ones, k=1)
            return
        lam = oracle.eigenvalues
        spread = max(1.0, lam[-1] - lam[0])
        scale = max(1.0, np.abs(lam).max())
        for k in range(1, min(5, oracle.k) + 1):
            s = dense_spectrum(op, deflate_ones, k)
            X = s.eigenvectors
            assert s.k == oracle.k and X.shape == (g.n, k) and np.isfinite(X).all()
            assert np.abs(X.T @ X - np.eye(k)).max() <= 1e-12
            assert np.linalg.norm(A @ X - X * s.eigenvalues[:k], axis=0).max() <= 1e-12 * spread
            assert np.abs(s.eigenvalues - lam).max() <= 1e-12 * scale
            if deflate_ones:
                assert np.abs(X.sum(axis=0)).max() / math.sqrt(g.n) <= 1e-10
            # each cluster of eigh's eigenvalues: the columns that fall in it
            # lie in its span, so the sine of their largest principal angle,
            # ||(I - Q Q^T) X_c||_2, is 0 up to rounding
            start = 0
            while start < k:
                stop = start + 1
                while stop < len(lam) and lam[stop] - lam[stop - 1] <= 1e-8 * spread:
                    stop += 1
                Q, Xc = oracle.eigenvectors[:, start:stop], X[:, start:min(stop, k)]
                assert np.linalg.norm(Xc - Q @ (Q.T @ Xc), 2) <= 1e-10
                start = stop

    @pytest.mark.parametrize("k", [None, 6, 7])
    def test_more_modes_come_from_eigh(self, k, monkeypatch):
        op = laplacian(path_string(StringSpec(12, overrides=((5, -0.5),))), "signed")
        full = dense_spectrum(op)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        s = dense_spectrum(op, k=k)
        assert calls == [(12, 12)]
        assert np.array_equal(s.eigenvalues, full.eigenvalues)
        assert np.array_equal(s.eigenvectors, full.eigenvectors[:, :k])

    @pytest.mark.parametrize("k", [None, 7])
    def test_eigh_modes_make_no_eigvalsh(self, k, monkeypatch):
        """The ``eigh`` route takes its eigenvalues from ``eigh`` and makes no ``eigvalsh``."""
        op = laplacian(path_string(StringSpec(12, overrides=((5, -0.5),))), "signed")
        calls = count_dense_eigensolves(monkeypatch)
        s = dense_spectrum(op, k=k)
        assert calls == [("eigh", (12, 12))] and s.eigenvectors.shape == (12, 12 if k is None else k)
        assert s.k == 12

    @pytest.mark.parametrize("deflate_ones", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_k_above_the_solve_space_gives_every_pair(self, n, deflate_ones):
        """As the full basis sliced would: k = 5 on fewer dimensions returns them all."""
        op = laplacian(graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)]), "standard")
        full = dense_spectrum(op, deflate_ones)
        s = dense_spectrum(op, deflate_ones, k=5)
        assert s.k == full.k == n - int(deflate_ones) and s.eigenvectors.shape == (n, s.k)
        assert np.abs(s.eigenvalues - full.eigenvalues).max(initial=0.0) <= 1e-12 * 4
        assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(s.k)).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("deflate_ones", [False, True])
    @pytest.mark.parametrize("scale", [2.0**-30, 2.0**30], ids=["2^-30", "2^30"])
    def test_power_of_two_scale_gives_the_same_vectors(self, scale, deflate_ones):
        """The residual limit is relative to ||A||_inf, and the solves run on the
        matrix scaled to unit norm: random-300's standard modes, one of which
        takes the second solve, come out bit-identical at every power-of-two
        scale, with exactly scaled eigenvalues."""
        g = sparse_random_graph(17, 300, 1800)
        s1 = dense_spectrum(laplacian(g, "standard"), deflate_ones, k=5)
        sc = dense_spectrum(laplacian(scale_weights(g, scale), "standard"), deflate_ones, k=5)
        assert np.array_equal(sc.eigenvectors, s1.eigenvectors)
        assert np.array_equal(sc.eigenvalues, scale * s1.eigenvalues)

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_fiedler_vector_is_held_to_the_one_limit(self, kind):
        """The dense Fiedler vector meets the modes' residual limit, 1e-13 ||L||_inf.
        Held to 1e-10, one solve left up to 3.7e-13 ||L||_inf on these graphs
        (seeds 14, 19, 20 and 26, standard kind)."""
        for seed in range(40):
            g = sparse_random_graph(seed, 300, 1800)
            op = laplacian(g, kind)
            f = fiedler(g, kind)
            assert np.linalg.norm(op.dense() @ f.vector - f.eigenvalue * f.vector) <= 1e-13 * op.norm_inf

    def test_each_call_solves_its_k_vectors_once(self, monkeypatch):
        """Each call keeps nothing: one ``eigvalsh`` for every eigenvalue, and one
        ``_dense_vector`` per vector, each column the same at every k."""
        op = laplacian(path_string(StringSpec(30, overrides=((11, -0.5),))), "signed")
        full = dense_spectrum(op)
        dense = count_dense_eigensolves(monkeypatch)
        calls = []
        vector = signedcut.eigen._dense_vector
        monkeypatch.setattr(signedcut.eigen, "_dense_vector",
                            lambda *args: calls.append(args[4]) or vector(*args))
        spectra = []
        for k in (0, 1, 2, 3):
            spectra.append(dense_spectrum(op, k=k))
            assert dense == [("eigvalsh", (30, 30))] and calls == list(range(k))
            dense.clear()
            calls.clear()
        for k, s in enumerate(spectra):
            assert s.eigenvectors.shape == (30, k)
            assert np.abs(s.eigenvalues - full.eigenvalues).max() <= 1e-12 * op.norm_inf
            assert np.array_equal(s.eigenvalues, spectra[0].eigenvalues)
            assert np.abs(s.eigenvectors - spectra[-1].eigenvectors[:, :k]).max(initial=0.0) <= 1e-12

    def test_a_collapsed_column_raises(self, monkeypatch):
        """A solve whose result lies in the span of the columns before it is an error, not a NaN."""
        op = laplacian(path_string(StringSpec(10)), "standard")
        first = dense_spectrum(op, k=1).eigenvectors[:, 0]
        monkeypatch.setattr(signedcut.eigen, "_shifted_solve", lambda M, lam, b, unit: first / np.abs(first).max())
        with pytest.raises(BasisDegenerateError, match="collapsed onto the 1 before it"):
            dense_spectrum(op, k=2)


class TestLobpcg:
    def test_unit_path_matches_oracle(self):
        op = laplacian(path_string(StringSpec(75)), "standard")
        cfg = SolverConfig(block_size=8, tol=1e-8, max_iter=500, seed=3)
        s, trace = lobpcg_smallest(op, 5, cfg)
        oracle = dense_spectrum(op)
        # the whole block of 8 comes back; the 5 wanted pairs lead
        assert s.k == 8 and s.converged[:5].all()
        np.testing.assert_allclose(s.eigenvalues[:5], oracle.eigenvalues[:5], atol=1e-7)
        for c in range(5):
            assert angle_between(s.eigenvectors[:, c], oracle.eigenvectors[:, c]) <= 1e-6

    def test_truncated_string_keeps_sign_change_at_negative_edge(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        op = laplacian(g, "standard")
        cfg = SolverConfig(block_size=5, tol=1e-8, max_iter=30, seed=11)
        s, trace = lobpcg_smallest(op, 5, cfg, deflate_ones=True)
        assert not s.converged.all()
        lead = s.eigenvectors[:, 0]
        assert lead[36] * lead[37] < 0

    def test_negative_eigenvalue_2x2_with_deflation(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        op = laplacian(g, "standard")
        s, _ = lobpcg_smallest(op, 1, SolverConfig(block_size=1, tol=1e-10, max_iter=50, seed=0),
                               deflate_ones=True)
        assert s.eigenvalues[0] == pytest.approx(-2.0, abs=1e-10)
        v = s.eigenvectors[:, 0]
        assert abs(abs(v[0]) - abs(v[1])) < 1e-8 and v[0] * v[1] < 0

    def test_deflation_keeps_iterates_off_ones(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "standard")
            k = min(3, g.n - 1)
            cfg = SolverConfig(block_size=k, tol=1e-8, max_iter=500,
                               seed=int(rng.integers(1 << 20)))
            s, _ = lobpcg_smallest(op, k, cfg, deflate_ones=True)
            ones = np.ones(g.n) / math.sqrt(g.n)
            assert np.abs(s.eigenvectors.T @ ones).max() <= 1e-8

    def test_ritz_values_non_increasing(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "standard")
            k = min(4, g.n - 1)
            cfg = SolverConfig(block_size=k, tol=1e-9, max_iter=300,
                               seed=int(rng.integers(1 << 20)))
            _, trace = lobpcg_smallest(op, k, cfg)
            ritz = np.array(trace)
            if len(ritz) > 1:
                assert np.diff(ritz, axis=0).max() <= 1e-12

    def test_bitwise_deterministic(self):
        op = laplacian(path_string(StringSpec(40, overrides=((10, -0.3),))), "standard")
        cfg = SolverConfig(block_size=4, tol=1e-9, max_iter=200, seed=42)
        s1, t1 = lobpcg_smallest(op, 3, cfg)
        s2, t2 = lobpcg_smallest(op, 3, cfg)
        assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
        assert s1.eigenvectors.tobytes() == s2.eigenvectors.tobytes()
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert a.tobytes() == b.tobytes()

    def test_unconverged_is_flagged_not_raised(self):
        op = laplacian(path_string(StringSpec(75)), "standard")
        cfg = SolverConfig(block_size=3, tol=1e-12, max_iter=3, seed=0)
        s, trace = lobpcg_smallest(op, 3, cfg)
        assert not s.converged.all()
        assert len(trace) == 3

    def test_returns_the_spectrum_and_trace_the_benchmark_reads(self):
        """The benchmark's solve log unpacks ``(spectrum, trace)`` on every run
        and reads ``iterations``, the trace's length and one converged flag
        per block column."""
        op = laplacian(path_string(StringSpec(75)), "standard")
        cfg = SolverConfig(block_size=4, tol=1e-12, max_iter=7, seed=0)
        result = lobpcg_smallest(op, 3, cfg)
        assert isinstance(result, tuple) and len(result) == 2
        s, trace = result
        assert isinstance(s, Spectrum)
        assert len(trace) == s.iterations == 7
        assert s.converged.shape == (s.eigenvectors.shape[1],) == (4,)
        assert s.converged.dtype == bool

    def test_block_size_must_fit(self):
        """The block fits the solve space: n columns, or n - 1 with ones deflated."""
        op = laplacian(path_string(StringSpec(4)), "standard")
        for block, deflate in ((5, False), (4, True)):
            with pytest.raises(ValueError):
                lobpcg_smallest(op, block, SolverConfig(block_size=block), deflate)
        s, _ = lobpcg_smallest(op, 4, SolverConfig(block_size=4))
        assert s.converged.all()
        np.testing.assert_allclose(s.eigenvalues, path_eigenvalues(4), atol=1e-12)

    @pytest.mark.parametrize("knob", [{"block_size": 0}, {"tol": 0.0}, {"tol": math.nan},
                                      {"max_iter": 0}])
    def test_invalid_config_raises(self, knob):
        with pytest.raises(ValueError):
            SolverConfig(**knob)

    @pytest.mark.parametrize("k, block, message", [
        (0, None, "k must be >= 1, got 0"),
        (3, 2, "block_size 2 smaller than k 3"),
        (1, 11, "block_size 11 too large for a solve space of dimension 10"),
    ])
    def test_invalid_problem_raises(self, k, block, message):
        op = laplacian(path_string(StringSpec(10)), "signed")
        with pytest.raises(ValueError, match=re.escape(message)):
            lobpcg_smallest(op, k, SolverConfig(block_size=block))

    @pytest.mark.parametrize("n, deflate, k, block, columns", [
        (10, False, 1, None, 2),
        (10, True, 2, None, 3),
        (10, False, 1, 5, 5),
        (3, True, 2, None, 2),
        (2, True, 1, None, 1),
        (10, False, 2, 1, 3),
    ])
    def test_gap_partner_adds_a_column_where_there_is_room(self, n, deflate, k, block, columns):
        op = laplacian(path_string(StringSpec(n)), "standard")
        s, _ = lobpcg_smallest(op, k, SolverConfig(block_size=block), deflate, gap_partner=True)
        assert s.k == columns

    def test_residual_norms_below_the_normal_range(self):
        """At weights of 1e-165 a residual's squares underflow unless it is scaled first."""
        g = path_string(StringSpec(8, overrides=((3, -0.3),)))
        c = 1e-165
        op = laplacian(scale_weights(g, c), "standard")
        s, _ = lobpcg_smallest(op, 1, SolverConfig(block_size=2), deflate_ones=True)
        want = dense_spectrum(laplacian(g, "standard"), deflate_ones=True).eigenvalues[0]
        assert s.converged[0] and s.eigenvalues[0] / c == pytest.approx(want, abs=1e-12)
        # the reported norms are the residuals' own, taken here at unit scale
        X = s.eigenvectors
        R = (op.matmat(X) - X * s.eigenvalues) / c
        np.testing.assert_allclose(s.residual_norms / c, np.linalg.norm(R, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-14, 1e-10, 1e-6, 1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_tolerance_is_relative_at_every_weight_scale(self, kind, scale):
        """Below unit scale tol is relative to ||A||_inf, not absolute."""
        g = scale_weights(path_string(StringSpec(75, overrides=((36, -0.05),))), scale)
        want = fiedler(g, kind)
        f = fiedler(g, kind, solver=SolverConfig(precondition=True))
        assert abs(f.eigenvalue - want.eigenvalue) <= 1e-10 * scale
        assert 1.0 - abs(float(f.vector @ want.vector)) <= 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_first_test_stops_only_a_converged_block(self, n):
        """The all-negative K_n repeats its signed Fiedler eigenvalue n - 2: a start
        block of two meets that eigenspace, so its first column converges at once.
        The first test does not stop there; one update finds the tied partner."""
        g = graph_from_edges(n, [(i, j, -1.0) for i in range(n) for j in range(i + 1, n)])
        s, trace = lobpcg_smallest(laplacian(g, "signed"), 1, SolverConfig(), gap_partner=True)
        assert s.k == 2 and s.converged.all() and s.iterations == len(trace) == 2
        np.testing.assert_allclose(s.eigenvalues, [n - 2.0] * 2, rtol=1e-14)

    def test_a_vanished_residual_block_after_the_first_test(self, monkeypatch):
        """An update that finds no residual column ends the solve when the wanted pair
        converged at the first test (the signed K3), and is an error when it did not."""
        orthonormalize, calls = signedcut.eigen._orthonormalize, []

        def start_block_only(V, guard=None):
            calls.append(V.shape)
            return orthonormalize(V, guard) if len(calls) == 1 else V[:, :0]

        monkeypatch.setattr(signedcut.eigen, "_orthonormalize", start_block_only)
        triangle = graph_from_edges(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)])
        s, trace = lobpcg_smallest(laplacian(triangle, "signed"), 1, SolverConfig(), gap_partner=True)
        assert len(calls) == 2 and s.iterations == len(trace) == 1
        assert s.converged.tolist() == [True, False]
        calls.clear()
        with pytest.raises(BasisDegenerateError, match="residual block vanished"):
            lobpcg_smallest(laplacian(path_string(StringSpec(10)), "standard"), 1, SolverConfig(),
                            gap_partner=True)

    def test_residual_norms_and_orthonormality(self):
        op = laplacian(path_string(StringSpec(30)), "standard")
        cfg = SolverConfig(block_size=5, tol=1e-9, max_iter=400, seed=5)
        s, _ = lobpcg_smallest(op, 3, cfg)
        # every column of the block, wanted or not, with its own residual
        assert s.residual_norms.shape == s.converged.shape == (5,)
        assert s.converged[:3].all()
        A = op.dense()
        for c in range(5):
            expect = np.linalg.norm(A @ s.eigenvectors[:, c]
                                    - s.eigenvalues[c] * s.eigenvectors[:, c])
            assert s.residual_norms[c] == pytest.approx(expect, rel=1e-6, abs=1e-12)
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        assert (np.diff(s.eigenvalues) >= -1e-12).all()


def count_block_matvecs(op):
    """Record the column count of every block matvec the operator runs from now on."""
    calls = []
    inner = op.matmat

    def counting(X):
        calls.append(1 if np.ndim(X) == 1 else np.shape(X)[1])
        return inner(X)

    op.matmat = counting
    return calls


class TestLobpcgMatvecCount:
    """One block matvec per iteration, plus the start block and the final residuals."""

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_3000_mass_string(self, kind):
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
        op = laplacian(g, kind)
        calls = count_block_matvecs(op)
        cfg = SolverConfig(block_size=5, tol=1e-5, max_iter=200, seed=1)
        _, trace = lobpcg_smallest(op, 2 if kind == "standard" else 3, cfg,
                                   deflate_ones=kind == "standard")
        assert len(trace) == 200
        assert len(calls) <= len(trace) + 2

    def test_seeded_random_graph(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, n_max=200, density=0.05)
        op = laplacian(g, "standard")
        calls = count_block_matvecs(op)
        cfg = SolverConfig(block_size=4, tol=1e-9, max_iter=300, seed=2)
        s, trace = lobpcg_smallest(op, 3, cfg, deflate_ones=True)
        assert s.converged[:3].all() and len(trace) > 5
        assert len(calls) <= len(trace) + 2


def assert_lockstep_matches_serial(problems, seeds, tol, max_iter):
    """Each lock-step column against lobpcg_smallest's block-1 solve of its operator and seed.

    Returns the iteration counts of each operator's columns, one list per
    operator, after asserting that each equals the serial trace length.
    """
    theta, V, iterations = lobpcg_lockstep(problems, seeds, tol, max_iter)
    columns = len(problems) * len(seeds)
    assert theta.shape == iterations.shape == (columns,) and V.shape == (problems[0][0].n, columns)
    counts = []
    for i, (op, deflate_ones) in enumerate(problems):
        for b, seed in enumerate(seeds):
            col = i * len(seeds) + b
            cfg = SolverConfig(block_size=1, tol=tol, max_iter=max_iter, seed=seed)
            s, trace = lobpcg_smallest(op, 1, cfg, deflate_ones)
            v = s.eigenvectors[:, 0]
            assert theta[col] == pytest.approx(s.eigenvalues[0], abs=1e-12)
            assert min(np.abs(V[:, col] - v).max(), np.abs(V[:, col] + v).max()) <= 1e-10
            assert iterations[col] == len(trace)
        counts.append(iterations[i * len(seeds) : (i + 1) * len(seeds)].tolist())
    return counts


def eight_mass_string(kind, scale=1.0):
    """The 8-mass string with edge 4 at -0.3, every weight times scale; its operator and deflate flag."""
    g = scale_weights(path_string(StringSpec(8, overrides=((3, -0.3),))), scale)
    return laplacian(g, kind), kind == "standard"


class TestLobpcgLockstep:
    """Each column of the lock-step solve is, up to rounding, lobpcg_smallest's block-1 solve."""

    @staticmethod
    def study_operators():
        g = path_string(StringSpec(DEFAULT_STRING_LENGTH,
                                   overrides=((DEFAULT_SPECIAL_EDGE, NEGATIVE_EDGE_WEIGHT),)))
        return [(laplacian(g, "standard"), True),
                (laplacian(nullify_negative(g), "standard"), True),
                (laplacian(g, "signed"), False)]

    @pytest.mark.parametrize("max_iter", [30, 5])
    def test_truncated_study_operators(self, max_iter):
        counts = assert_lockstep_matches_serial(self.study_operators(), range(20), 1e-8, max_iter)
        assert counts == [[max_iter] * 20] * 3

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_converged_columns_stay_frozen(self, kind):
        [iterations] = assert_lockstep_matches_serial([eight_mass_string(kind)], range(10), 1e-8, 200)
        # the columns converge at different iterations, all within the budget
        assert len(set(iterations)) > 2 and max(iterations) < 200

    def test_each_column_tests_at_its_own_scale(self):
        """Operators 2^1000 apart in one call: each column stops as in its one-operator run."""
        problems = [eight_mass_string(kind, 2.0**e) for kind in ("standard", "signed") for e in (-500, 500)]
        seeds = range(10)
        _, V, iterations = lobpcg_lockstep(problems, seeds, 1e-8, 200)
        for i, problem in enumerate(problems):
            _, v, alone = lobpcg_lockstep([problem], seeds, 1e-8, 200)
            cols = slice(i * len(seeds), (i + 1) * len(seeds))
            assert iterations[cols].tolist() == alone.tolist() and alone.max() < 200
            assert np.minimum(np.abs(V[:, cols] - v).max(axis=0), np.abs(V[:, cols] + v).max(axis=0)).max() <= 1e-10

    def test_squared_norms_below_the_normal_range(self):
        """At weights of 1e-155 a residual's squared norm is subnormal unless w is scaled first."""
        assert_lockstep_matches_serial([eight_mass_string("standard", 1e-155)], range(5), 1e-163, 200)

    def test_one_block_matvec_per_iteration(self):
        problems = self.study_operators()
        calls = [count_block_matvecs(op) for op, _ in problems]
        lobpcg_lockstep(problems, range(20), 1e-8, 30)
        # the start block, with ones in front where ones is deflated, then
        # one product of the active columns per iteration
        assert calls == [[21] + [20] * 30, [21] + [20] * 30, [20] + [20] * 30]

    def test_truncated_iteration_study_is_one_lockstep_solve(self, monkeypatch):
        calls = []

        def recording(problems, *args):
            calls.append(len(problems))
            return lobpcg_lockstep(problems, *args)

        monkeypatch.setattr(signedcut.experiments, "lobpcg_lockstep", recording)
        doc = truncated_iteration_study(DEFAULT_STRING_LENGTH, DEFAULT_SPECIAL_EDGE, NEGATIVE_EDGE_WEIGHT)
        assert calls == [3]
        assert doc["sign_change_counts"] == {
            "standard_negative": 19, "baseline_zero": 15, "signed_negative": 14,
        }

    def test_operators_of_unequal_n(self):
        problems = [eight_mass_string("signed"), (laplacian(path_string(StringSpec(9)), "signed"), False)]
        with pytest.raises(ValueError, match=r"operators of one n, got n = \[8, 9\]"):
            lobpcg_lockstep(problems, range(3), 1e-8, 10)

    def test_no_operators(self):
        with pytest.raises(ValueError, match="at least one operator"):
            lobpcg_lockstep([], range(3), 1e-8, 10)

    def test_no_seeds(self):
        with pytest.raises(ValueError, match="at least one seed"):
            lobpcg_lockstep([eight_mass_string("standard")], [], 1e-8, 10)


def qr_kept_columns(V, guard):
    """How many columns QR's drop rule keeps of V projected once off the guard."""
    if guard is not None:
        V = V - guard @ (guard.T @ V)
    diag = np.abs(np.diagonal(np.linalg.qr(V, mode="r")))
    return int((diag > signedcut.eigen._QR_DROP_TOL * diag.max()).sum()) if diag.max() > 0 else 0


@st.composite
def blocks_with_guards(draw):
    """A block V and an orthonormal guard (or None) for ``_orthonormalize``.

    Each column is random; nearly a combination of the columns before it;
    nearly inside the guard's span; or tiny, 1e-20 to 1e-165 times the
    others.  A near column sits exactly on (combinations only), 1e-13 off
    (dropped) or 1e-3 off (kept), far from the drop tolerance, so that the
    QR count does not depend on rounding.  The block is scaled by 10**e,
    e in [-150, 150], and each column by a factor in [0.5, 2].
    """
    m = draw(st.integers(1, 5))
    g = draw(st.integers(0, 3))
    n = draw(st.integers(m + g + 3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    guard = np.linalg.qr(rng.standard_normal((n, g)))[0] if g else None
    V = rng.standard_normal((n, m))
    for j in range(m):
        mode = draw(st.sampled_from(["random", "dependent", "guard", "tiny"]))
        if mode == "tiny":
            V[:, j] *= 10.0 ** -draw(st.integers(20, 165))
            continue
        if mode == "dependent" and j > 0:
            base, eps = V[:, :j] @ rng.standard_normal(j), draw(st.sampled_from([0.0, 1e-13, 1e-3]))
        elif mode == "guard" and g:
            base, eps = guard @ rng.standard_normal(g), draw(st.sampled_from([1e-13, 1e-3]))
        else:
            continue
        V[:, j] = base + eps * np.linalg.norm(base) * rng.standard_normal(n) / math.sqrt(n)
    V *= 10.0 ** draw(st.integers(-150, 150)) * 2.0 ** rng.uniform(-1.0, 1.0, size=m)
    return V, guard


class TestOrthonormalize:
    @settings(max_examples=300, deadline=None)
    @given(blocks_with_guards())
    def test_orthonormal_off_the_guard_with_qr_drops(self, case):
        V, guard = case
        Q = signedcut.eigen._orthonormalize(V, guard)
        assert Q.shape == (V.shape[0], qr_kept_columns(V, guard))
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0) <= 1e-12
        if guard is not None:
            assert np.abs(guard.T @ Q).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_block_near_the_guard_at_any_scale(self, scale):
        """Columns 1e-13 off the guard's span keep their directions at every scale."""
        rng = np.random.default_rng(3)
        guard = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        V = guard @ rng.standard_normal((2, 2)) + 1e-13 * rng.standard_normal((20, 2))
        Q = signedcut.eigen._orthonormalize(V * scale, guard)
        assert Q.shape == (20, 2)
        assert np.abs(Q.T @ Q - np.eye(2)).max() <= 1e-12
        assert np.abs(guard.T @ Q).max() <= 1e-12

    @staticmethod
    def count_cholesky(monkeypatch):
        calls = []
        factor = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        return calls

    def test_clean_block_takes_one_pass(self, monkeypatch):
        rng = np.random.default_rng(7)
        guard = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        V = rng.standard_normal((50, 4))
        calls = self.count_cholesky(monkeypatch)
        Q = signedcut.eigen._orthonormalize(V, guard)
        assert len(calls) == 1 and Q.shape == (50, 4)
        assert np.abs(Q.T @ Q - np.eye(4)).max() <= 1e-14
        assert np.abs(guard.T @ Q).max() <= 1e-14

    def test_dropped_column_takes_two_passes(self, monkeypatch):
        """A column dropped as tiny, whose Gram entries lost precision, forces the second pass."""
        rng = np.random.default_rng(0)
        guard = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        V = rng.standard_normal((20, 3))
        V[:, 0] *= 1e-160  # its squared norm is subnormal
        calls = self.count_cholesky(monkeypatch)
        Q = signedcut.eigen._orthonormalize(V, guard)
        assert len(calls) == 2 and Q.shape == (20, 2)
        assert np.abs(Q.T @ Q - np.eye(2)).max() <= 1e-14
        assert np.abs(guard.T @ Q).max() <= 1e-14

    def test_column_mostly_inside_the_guard_takes_two_passes(self, monkeypatch):
        rng = np.random.default_rng(7)
        guard = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        V = rng.standard_normal((50, 4))
        # column 2 keeps about a tenth of its squared norm through the projection
        V[:, 2] = guard @ rng.standard_normal(3) + 0.05 * rng.standard_normal(50)
        calls = self.count_cholesky(monkeypatch)
        Q = signedcut.eigen._orthonormalize(V, guard)
        assert len(calls) == 2 and Q.shape == (50, 4)
        assert np.abs(Q.T @ Q - np.eye(4)).max() <= 1e-14
        assert np.abs(guard.T @ Q).max() <= 1e-14


@st.composite
def solver_cases(draw):
    """A signed graph with n in [3, 40] and a solver config, often with 3m >= n."""
    n = draw(st.integers(3, 40))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.triu_indices(n, 1)
    keep = rng.uniform(size=len(i)) < density
    w = rng.uniform(-2.0, 2.0, size=int(keep.sum()))
    w[w == 0.0] = 1.0
    g = graph_from_arrays(n, i[keep], j[keep], w)
    m = draw(st.integers(1, min(n - 1, 8)))
    k = draw(st.integers(1, m))
    seed = draw(st.integers(0, 2**20))
    deflate = draw(st.booleans())
    cfg = SolverConfig(block_size=m, tol=1e-9, max_iter=1000, seed=seed,
                       precondition=draw(st.booleans()))
    return g, draw(st.sampled_from(["standard", "signed"])), k, cfg, deflate


@settings(max_examples=80, deadline=None)
@given(solver_cases())
def test_lobpcg_matches_dense_on_generated_graphs(case):
    """Converged pairs match the dense oracle; Ritz values never rise.

    The same bounds hold with and without the Jacobi preconditioner.
    """
    g, kind, k, cfg, deflate = case
    op = laplacian(g, kind)
    if deflate:
        try:
            oracle = dense_spectrum(op, deflate_ones=True)
        except ValueError:
            with pytest.raises(ValueError, match="not an eigenvector"):
                lobpcg_smallest(op, k, cfg, deflate_ones=True)
            return
    else:
        oracle = dense_spectrum(op)
    s, trace = lobpcg_smallest(op, k, cfg, deflate)
    for c in np.flatnonzero(s.converged[:k]):
        assert abs(s.eigenvalues[c] - oracle.eigenvalues[c]) <= 1e-7
        # the eigenspace of every oracle eigenvalue within the matching tolerance
        J = np.flatnonzero(np.abs(oracle.eigenvalues - s.eigenvalues[c]) <= 1e-7)
        basis = oracle.eigenvectors[:, J]
        v = s.eigenvectors[:, c]
        assert math.asin(min(1.0, float(np.linalg.norm(v - basis @ (basis.T @ v))))) <= 1e-5
    ritz = np.array(trace)
    if len(ritz) > 1:
        assert np.diff(ritz, axis=0).max() <= 1e-12


class TestJacobiPreconditioner:
    """T = diag(A - sigma I)^-1 with sigma the Gershgorin lower bound."""

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    @pytest.mark.parametrize("g", [
        pytest.param(graph_from_edges(5, []), id="edgeless"),
        pytest.param(graph_from_edges(4, [(0, 1, 1.0), (1, 2, 0.5)]), id="isolated-vertex"),
        pytest.param(graph_from_edges(4, [(0, 1, -1.0), (1, 2, -0.5), (0, 3, -2.0)]),
                     id="all-negative"),
        pytest.param(graph_from_edges(4, [(0, 1, -1.0), (1, 2, 0.5)]),
                     id="isolated-vertex-negative-edge"),
    ])
    def test_positive_and_finite(self, g, kind):
        T = jacobi_preconditioner(laplacian(g, kind))
        assert T.shape == (g.n,)
        assert np.isfinite(T).all() and (T > 0).all()

    def test_signed_kind_is_inverse_absolute_degree(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "signed")
            d_abs = np.abs(op.dense()).sum(axis=1) / 2.0
            assert op.gershgorin_lower == 0.0
            connected = d_abs > 0
            T = jacobi_preconditioner(op)
            np.testing.assert_array_equal(T[connected], 1.0 / op.diagonal[connected])
            np.testing.assert_allclose(T[connected], 1.0 / d_abs[connected], rtol=1e-13)

    def test_standard_kind_shift_is_negative_with_a_negative_edge(self):
        g = path_string(StringSpec(10, overrides=((4, -0.5),)))
        op = laplacian(g, "standard")
        # vertices 4 and 5 carry the edge: a_ii - r_i = (1 - 0.5) - 1.5
        assert op.gershgorin_lower == pytest.approx(-1.0, abs=1e-15)
        np.testing.assert_allclose(jacobi_preconditioner(op), 1.0 / (op.diagonal + 1.0))
        assert laplacian(path_string(StringSpec(10)), "standard").gershgorin_lower == 0.0


@settings(max_examples=60, deadline=None)
@given(solver_cases())
def test_gershgorin_shift_bounds_the_spectrum_from_below(case):
    g, kind, *_ = case
    op = laplacian(g, kind)
    lam_min = float(np.linalg.eigvalsh(op.dense())[0])
    assert op.gershgorin_lower <= lam_min + 1e-12 * max(1.0, op.norm_inf)
    assert op.gershgorin_lower <= 0.0


@st.composite
def coarsening_graphs(draw):
    """Sparse signed graphs with n <= 60 that mostly pair along strong edges.

    A random tree whose vertices hang off one of the last few vertices
    (span 1 is a path), plus a few extra edges.  Weights come from a small
    set half the time, so parallel edges of a contraction can cancel exactly.
    """
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(1, 3))
    child = np.arange(1, n)
    parent = np.maximum(child - rng.integers(1, span + 1, size=n - 1), 0)
    a, b = rng.integers(0, n, size=(2, draw(st.integers(0, n // 3))))
    lo = np.concatenate([parent, np.minimum(a, b)[a != b]])
    hi = np.concatenate([child, np.maximum(a, b)[a != b]])
    _, first = np.unique(lo * n + hi, return_index=True)
    if draw(st.booleans()):
        w = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=len(first))
    else:
        w = rng.uniform(0.05, 2.0, size=len(first)) * rng.choice([-1.0, 1.0], size=len(first))
    return graph_from_arrays(n, lo[first], hi[first], w)


def small_hierarchy(g, kind, k):
    """The multilevel preconditioner with coarse solves below 4 vertices, or None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signedcut.eigen, "_COARSE_MAX", 3)
        return multilevel_preconditioner(laplacian(g, kind), k)


def reference_v_cycle(h, R):
    """The V(1,1)-cycle from its definition: damped Jacobi smoothing, the dense
    prolongation P (``P[i, agg[i]] = sign[i]``), and the symmetrized inverse of
    the last level's matrix."""
    def cycle(depth, b):
        lv = h.levels[depth]
        if depth == len(h.levels) - 1:
            inv = np.linalg.inv(lv.op.dense())
            return (inv + inv.T) / 2.0 @ b
        S = (signedcut.eigen._SMOOTH_WEIGHT / lv.op.diagonal)[:, None]
        P = np.zeros((lv.op.n, h.levels[depth + 1].op.n))
        P[np.arange(lv.op.n), lv.agg] = lv.sign
        x = S * b
        x = x + P @ cycle(depth + 1, P.T @ (b - lv.op.matmat(x)))
        return x + S * (b - lv.op.matmat(x))

    return cycle(0, R)


class TestMultilevelPreconditioner:
    """The aggregation hierarchy, its V-cycle and the route rule."""

    @settings(max_examples=40, deadline=None)
    @given(coarsening_graphs(), st.sampled_from(["standard", "signed"]), st.integers(1, 3))
    def test_coarse_levels_are_galerkin_products(self, g, kind, k):
        h = small_hierarchy(g, kind, k)
        assume(h is not None)
        op = laplacian(g, kind)
        fine = h.levels[0]
        mean_radius = float(op.radii.mean())
        negative = int((g.edge_arrays()[2] < 0).sum()) if kind == "standard" else 0
        if 0 < negative < k:
            # the signed Laplacian stands in for the standard operator
            want = laplacian(g, "signed").dense() + 1e-3 * mean_radius * np.eye(g.n)
        else:
            want = op.dense() + (1e-5 * mean_radius - op.gershgorin_lower) * np.eye(g.n)
        scale = np.abs(want).max()
        np.testing.assert_allclose(fine.op.dense(), want, rtol=0, atol=1e-14 * scale)
        fine_excess = fine.op.diagonal - fine.op.radii
        assert fine_excess.min() > 0.0
        X = np.random.default_rng(g.n).standard_normal((g.n, 3))
        for lv in h.levels:
            # the level's matvec applies the same matrix as its dense form
            M = lv.op.dense()
            scale = np.abs(M).max() * np.abs(X).max()
            np.testing.assert_allclose(lv.op.matmat(X[: lv.op.n]), M @ X[: lv.op.n],
                                       rtol=0, atol=1e-13 * scale)
        for lv, coarse in zip(h.levels, h.levels[1:]):
            assert set(np.unique(lv.sign)) <= {-1.0, 1.0}
            P = np.zeros((lv.op.n, coarse.op.n))
            P[np.arange(lv.op.n), lv.agg] = lv.sign
            galerkin = P.T @ lv.op.dense() @ P
            scale = np.abs(galerkin).max()
            np.testing.assert_allclose(coarse.op.dense(), galerkin, rtol=0, atol=1e-13 * scale)
            assert (coarse.op.diagonal - coarse.op.radii).min() >= fine_excess.min()

    @settings(max_examples=40, deadline=None)
    @given(coarsening_graphs(), st.sampled_from(["standard", "signed"]), st.integers(1, 3))
    def test_v_cycle_is_symmetric_positive_definite(self, g, kind, k):
        h = small_hierarchy(g, kind, k)
        assume(h is not None)
        B = h(np.eye(g.n))
        scale = np.abs(B).max()
        assert np.abs(B - B.T).max() <= 1e-12 * scale
        rng = np.random.default_rng(g.n)
        x, y = rng.standard_normal((2, g.n))
        assert abs(x @ h(y[:, None])[:, 0] - y @ h(x[:, None])[:, 0]) <= 1e-12 * scale * g.n
        assert np.linalg.eigvalsh((B + B.T) / 2.0)[0] > 0.0

    @settings(max_examples=40, deadline=None)
    @given(coarsening_graphs(), st.sampled_from(["standard", "signed"]), st.integers(1, 3))
    def test_v_cycle_matches_its_definition(self, g, kind, k):
        h = small_hierarchy(g, kind, k)
        assume(h is not None and len(h.levels) > 1)
        R = np.random.default_rng(g.n).standard_normal((g.n, 3))
        want = reference_v_cycle(h, R)
        np.testing.assert_allclose(h(R), want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_v_cycle_matches_its_definition_on_the_3000_mass_string(self, kind):
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
        h = multilevel_preconditioner(laplacian(g, kind), 1)
        assert len(h.levels) == 3
        R = np.random.default_rng(0).standard_normal((g.n, 5))
        want = reference_v_cycle(h, R)
        np.testing.assert_allclose(h(R), want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_one_level_is_the_exact_shifted_inverse(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        h = multilevel_preconditioner(laplacian(g, "standard"), 2)
        assert [lv.op.n for lv in h.levels] == [75]
        M = h.levels[0].op.dense()
        np.testing.assert_allclose(h(M), np.eye(75), atol=1e-9)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_random_graphs_keep_jacobi_bit_for_bit(self, n, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
        if not path.exists():
            pytest.skip("bench/inputs.py is not in this checkout")
        spec = importlib.util.spec_from_file_location("bench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, inputs)
        spec.loader.exec_module(inputs)
        a = inputs.random_signed_graph(n, 6 * n, seed=3)
        g = graph_from_arrays(n, a.i, a.j, a.w)
        for kind in ("standard", "signed"):
            op = laplacian(g, kind)
            assert multilevel_preconditioner(op, 2) is None
            cfg = SolverConfig(block_size=4, tol=1e-6, max_iter=60, seed=1, precondition=True)
            s, trace = lobpcg_smallest(op, 2, cfg, kind == "standard")
            with monkeypatch.context() as mp:
                # W = T R with T the Jacobi diagonal, as before the hierarchy existed
                T = jacobi_preconditioner(op)[:, None]
                mp.setattr(signedcut.eigen, "_preconditioner", lambda op, k: lambda R: T * R)
                s_jacobi, trace_jacobi = lobpcg_smallest(op, 2, cfg, kind == "standard")
            assert len(trace) == len(trace_jacobi)
            np.testing.assert_array_equal(s.eigenvalues, s_jacobi.eigenvalues)
            np.testing.assert_array_equal(s.eigenvectors, s_jacobi.eigenvectors)

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_each_graph_is_paired_once(self, kind, monkeypatch):
        paired = []
        pair = signedcut.eigen._pair

        def counting_pair(graph):
            paired.append(graph)
            return pair(graph)

        monkeypatch.setattr(signedcut.eigen, "_pair", counting_pair)
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
        h = multilevel_preconditioner(laplacian(g, kind), 1)
        assert [lv.op.n for lv in h.levels] == [3000, 552, 177]
        # every graph paired is the contraction of the one paired before it
        assert [x.n for x in paired] == [3000, 1704, 971, 552, 313, 177]

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_3000_mass_string_converges(self, kind):
        linalg = pytest.importorskip("scipy.linalg")
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
        op = laplacian(g, kind)
        assert multilevel_preconditioner(op, 2).levels[0].op.n == 3000
        k = 2 if kind == "standard" else 3
        cfg = SolverConfig(block_size=5, tol=1e-5, max_iter=200, seed=1, precondition=True)
        s, trace = lobpcg_smallest(op, k, cfg, deflate_ones=kind == "standard")
        assert s.converged[:k].all() and len(trace) < 100
        _, _, w = g.edge_arrays()
        lam = linalg.eigh_tridiagonal(op.diagonal, -w, eigvals_only=True,
                                      select="i", select_range=(0, k))
        # the standard kind deflates ones, whose eigenvalue 0 lies between
        # the negative-edge mode and the Fiedler value
        want = np.delete(lam, 1) if kind == "standard" else lam[:k]
        np.testing.assert_allclose(s.eigenvalues[:k], want, rtol=0, atol=1e-9)


def random_signed_arrays(n, m, seed):
    """A spanning path over a random permutation plus random pairs, weights in U(-1, 1)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    a = rng.integers(0, n, size=2 * m)
    b = rng.integers(0, n, size=2 * m)
    lo = np.concatenate([np.minimum(perm[:-1], perm[1:]), np.minimum(a, b)[a != b]])
    hi = np.concatenate([np.maximum(perm[:-1], perm[1:]), np.maximum(a, b)[a != b]])
    _, first = np.unique(lo * n + hi, return_index=True)
    first = np.sort(first)[:m]
    w = rng.uniform(-1.0, 1.0, size=len(first))
    w[w == 0.0] = 0.5
    return graph_from_arrays(n, lo[first], hi[first], w)


@pytest.mark.parametrize("kind", ["standard", "signed"])
@pytest.mark.parametrize("n", [5000, 30000])
def test_lobpcg_fiedler_matches_eigsh_above_dense_threshold(n, kind):
    """Above the dense threshold the reference is scipy's ARPACK eigsh."""
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    g = random_signed_arrays(n, 6 * n, seed=17)
    f = fiedler(g, kind, solver=SolverConfig(block_size=5, tol=1e-8, max_iter=500, seed=4))
    ii, jj, ww = g.edge_arrays()
    A = sparse.coo_matrix((ww, (ii, jj)), shape=(n, n)).tocsr()
    A = A + A.T
    d = np.asarray(abs(A).sum(axis=1) if kind == "signed" else A.sum(axis=1)).ravel()
    L = sparse.diags(d) - A
    lam, U = eigsh(L, k=4, which="SA", tol=1e-12)
    order = np.argsort(lam)
    lam, U = lam[order], U[:, order]
    # the ones vector is an eigenvector of the standard Laplacian; it is never the Fiedler vector
    if kind == "standard":
        trivial = np.abs(U.T @ np.ones(n)) / math.sqrt(n) > 0.5
        lam, U = lam[~trivial], U[:, ~trivial]
    assert f.eigenvalue == pytest.approx(lam[0], abs=1e-7 * max(1.0, abs(lam[0])))
    assert angle_between(f.vector, U[:, 0]) <= 1e-5


@pytest.mark.parametrize("kind", ["standard", "signed"])
@pytest.mark.parametrize("graph", ["random", "string"])
def test_lobpcg_working_set(graph, kind):
    """The traced peak of a preconditioned solve, in n-vectors (8n bytes).

    A solve holds V and AV (2 (c + 3m) columns, c = 1 deflating ones), R
    (m) and one step's temporaries; the string also holds its V-cycle, about
    19 n-vectors at n = 3000.  Measured with block 5 (Python 3.11, numpy
    2.4): 53 / 56 on the random graph and 77 / 75 on the string (standard /
    signed).  A solver that keeps a twin of each buffer reaches 96-127.
    """
    if graph == "random":
        g = random_signed_arrays(20000, 120000, seed=17)
    else:
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
    op = laplacian(g, kind)
    cfg = SolverConfig(block_size=5, tol=1e-5, precondition=True)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        s, _ = lobpcg_smallest(op, 1, cfg, deflate_ones=kind == "standard")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert s.converged[0]
    assert peak <= 80 * 8 * g.n


def ones_first_basis(n):
    """Orthonormal basis whose first column is the normalized ones vector."""
    Q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))
    return Q


class TestGapAndConditioning:
    """select_fiedler's gap, spread and condition number on given spectra."""

    def test_gap_simple(self):
        f = select_fiedler(make_spectrum([0.0, 1.0, 3.0]), "signed")
        assert not f.skipped_constant
        assert f.eigenvalue == 0.0
        assert f.gap == 1.0

    def test_gap_excluding_trivial(self):
        s = make_spectrum([0.0, 1.0, 3.0, 4.0], ones_first_basis(4))
        f = select_fiedler(s, "signed")
        assert f.skipped_constant
        assert f.eigenvalue == 1.0
        assert f.gap == 2.0
        assert f.condition_number == pytest.approx(3.0 / 2.0)

    def test_gap_unit_path_closed_form(self):
        n = 75
        s = dense_spectrum(laplacian(path_string(StringSpec(n)), "standard"))
        f = select_fiedler(s, "standard")
        lam = path_eigenvalues(n)
        assert f.skipped_constant
        assert f.gap == pytest.approx(lam[2] - lam[1], abs=1e-10)

    def test_insufficient(self):
        s = make_spectrum([0.0], ones_first_basis(2)[:, :1])
        with pytest.raises(InsufficientSpectrumError):
            select_fiedler(s, "signed")
        f = select_fiedler(make_spectrum([1.0], [[0.0], [1.0]]), "signed")
        assert math.isinf(f.gap) and f.condition_number == 0.0

    def test_condition_number_simple(self):
        f = select_fiedler(make_spectrum([0.0, 1.0, 3.0]), "signed")
        assert f.condition_number == pytest.approx(3.0)

    def test_condition_number_clustered_is_infinite(self):
        f = select_fiedler(make_spectrum([1.0, 1.0 + 1e-15, 3.0]), "signed")
        assert 0.0 < f.gap
        assert math.isinf(f.condition_number)
        assert f.clustered_warning

    def test_a_spectrum_of_one_cluster_has_a_zero_gap(self):
        """K4's ones-deflated spectrum: three 4s, apart by rounding.  The spread is
        rounding too, so the gap is zero at the spectrum's scale, not the spread's."""
        f = select_fiedler(make_spectrum([4.0 - 1.8e-15, 4.0, 4.0 + 1.8e-15]), "standard")
        assert 0.0 < f.gap
        assert math.isinf(f.condition_number)
        assert f.clustered_warning

    def test_condition_number_with_supplied_top(self):
        s = make_spectrum([0.0, 1.0])
        assert select_fiedler(s, "signed").condition_number == pytest.approx(1.0)
        f = select_fiedler(s, "signed", largest_eigenvalue=10.0)
        assert f.condition_number == pytest.approx(10.0)

    def test_trivial_detection_needs_ones_alignment(self):
        # a zero eigenvalue alone does not make a column trivial
        s = make_spectrum([0.0, 1.0, 3.0])  # eigenvectors are coordinate axes
        assert not select_fiedler(s, "standard").skipped_constant
        s2 = make_spectrum([0.0, 1.0, 3.0, 4.0], ones_first_basis(4))
        assert select_fiedler(s2, "standard").skipped_constant


def test_gap_study_ratios_depend_on_string_length():
    """Freeze the gap-ratio behavior at two string lengths.

    The 100-mass string with the special edge between vertices 37 and 38
    gives the headline ratios (roughly 4x, 1/3x, 12x); the 75-mass string
    compresses them, so only the condition-number ratio survives there.
    """
    from signedcut import gap_study

    long_row = gap_study(100, 36, (-0.05,))["sweep"][0]
    assert long_row["gap_standard_over_baseline"] == pytest.approx(4.22, abs=0.05)
    assert long_row["gap_signed_over_baseline"] == pytest.approx(0.293, abs=0.005)
    assert long_row["condition_signed_over_standard"] == pytest.approx(14.4, abs=0.2)

    short_row = gap_study(75, 36, (-0.05,))["sweep"][0]
    assert short_row["gap_standard_over_baseline"] == pytest.approx(1.795, abs=0.01)
    assert short_row["gap_signed_over_baseline"] == pytest.approx(0.166, abs=0.005)
    # the signed-over-standard conditioning penalty is stable across lengths
    assert 7.2 <= short_row["condition_signed_over_standard"] <= 16.8


def test_estimate_largest_eigenvalue():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_graph(rng)
        op = laplacian(g, "standard")
        top = float(np.linalg.eigvalsh(op.dense()).max())
        est = estimate_largest_eigenvalue(op, seed=1)
        assert est <= top + 1e-8
        assert est >= 0.5 * top - 1e-8


def test_estimate_largest_eigenvalue_is_one_lanczos_run():
    """One matvec per Lanczos step, and the top Ritz value is sharp on small graphs."""
    rng = np.random.default_rng(22)
    errors = []
    for _ in range(20):
        g = random_graph(rng)
        for kind in ("standard", "signed"):
            op = laplacian(g, kind)
            top = float(np.linalg.eigvalsh(op.dense()).max())
            calls = count_block_matvecs(op)
            est = estimate_largest_eigenvalue(op, seed=3)
            assert len(calls) <= 20
            assert est <= top + 1e-8
            errors.append(abs(est - top) / max(1.0, abs(top)))
    assert np.median(errors) <= 1e-6
