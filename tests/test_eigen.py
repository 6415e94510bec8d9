import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedcut import (
    DimensionTooLargeError,
    InsufficientSpectrumError,
    SolverConfig,
    Spectrum,
    StringSpec,
    dense_spectrum,
    dense_spectrum_deflated,
    estimate_largest_eigenvalue,
    fiedler,
    graph_from_arrays,
    graph_from_edges,
    jacobi_preconditioner,
    laplacian,
    lobpcg_smallest,
    path_string,
    select_fiedler,
)

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
            assert res.max() <= 1e-10 * max(1.0, s.spread)

    def test_dense_routes_leave_solver_fields_unset(self):
        op = laplacian(path_string(StringSpec(10)), "standard")
        for s in (dense_spectrum(op), dense_spectrum_deflated(op)):
            assert s.residual_norms is None and s.converged is None

    def test_dimension_guard(self):
        op = laplacian(graph_from_edges(2500, [(0, 1, 1.0)]), "standard")
        with pytest.raises(DimensionTooLargeError):
            dense_spectrum(op)

    def test_deflated_removes_trivial(self):
        s = dense_spectrum_deflated(laplacian(path_string(StringSpec(10)), "standard"))
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

    for i, j, _ in g.edges:
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
        s = dense_spectrum_deflated(op)
        n = g.n
        assert s.k == n - 1 and s.eigenvectors.shape == (n, n - 1)
        scale = max(1.0, s.spread)
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
            dense_spectrum_deflated(laplacian(g, "signed"))


class TestLobpcg:
    def test_unit_path_matches_oracle(self):
        op = laplacian(path_string(StringSpec(75)), "standard")
        cfg = SolverConfig(k=5, block_size=8, tol=1e-8, max_iter=500, seed=3)
        s, trace = lobpcg_smallest(op, cfg)
        oracle = dense_spectrum(op)
        assert s.converged.all()
        np.testing.assert_allclose(s.eigenvalues, oracle.eigenvalues[:5], atol=1e-7)
        for c in range(5):
            assert angle_between(s.eigenvectors[:, c], oracle.eigenvectors[:, c]) <= 1e-6

    def test_truncated_string_keeps_sign_change_at_negative_edge(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        op = laplacian(g, "standard")
        cfg = SolverConfig(k=5, block_size=5, tol=1e-8, max_iter=30, seed=11,
                           deflate_ones=True)
        s, trace = lobpcg_smallest(op, cfg)
        assert not s.converged.all()
        lead = s.eigenvectors[:, 0]
        assert lead[36] * lead[37] < 0

    def test_negative_eigenvalue_2x2_with_deflation(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        op = laplacian(g, "standard")
        s, _ = lobpcg_smallest(op, SolverConfig(k=1, block_size=1, tol=1e-10,
                                                max_iter=50, seed=0, deflate_ones=True))
        assert s.eigenvalues[0] == pytest.approx(-2.0, abs=1e-10)
        v = s.eigenvectors[:, 0]
        assert abs(abs(v[0]) - abs(v[1])) < 1e-8 and v[0] * v[1] < 0

    def test_deflation_keeps_iterates_off_ones(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "standard")
            k = min(3, g.n - 1)
            cfg = SolverConfig(k=k, block_size=k, tol=1e-8, max_iter=500,
                               seed=int(rng.integers(1 << 20)), deflate_ones=True)
            s, _ = lobpcg_smallest(op, cfg)
            ones = np.ones(g.n) / math.sqrt(g.n)
            assert np.abs(s.eigenvectors.T @ ones).max() <= 1e-8

    def test_ritz_values_non_increasing(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_graph(rng)
            op = laplacian(g, "standard")
            k = min(4, g.n - 1)
            cfg = SolverConfig(k=k, block_size=k, tol=1e-9, max_iter=300,
                               seed=int(rng.integers(1 << 20)))
            _, trace = lobpcg_smallest(op, cfg)
            ritz = np.array(trace.ritz_values)
            if len(ritz) > 1:
                assert np.diff(ritz, axis=0).max() <= 1e-12

    def test_bitwise_deterministic(self):
        op = laplacian(path_string(StringSpec(40, overrides=((10, -0.3),))), "standard")
        cfg = SolverConfig(k=3, block_size=4, tol=1e-9, max_iter=200, seed=42)
        s1, t1 = lobpcg_smallest(op, cfg)
        s2, t2 = lobpcg_smallest(op, cfg)
        assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
        assert s1.eigenvectors.tobytes() == s2.eigenvectors.tobytes()
        assert len(t1) == len(t2)
        for a, b in zip(t1.ritz_values, t2.ritz_values):
            assert a.tobytes() == b.tobytes()

    def test_unconverged_is_flagged_not_raised(self):
        op = laplacian(path_string(StringSpec(75)), "standard")
        cfg = SolverConfig(k=3, block_size=3, tol=1e-12, max_iter=3, seed=0)
        s, trace = lobpcg_smallest(op, cfg)
        assert not s.converged.all()
        assert len(trace) == 3

    def test_block_size_must_fit(self):
        op = laplacian(path_string(StringSpec(4)), "standard")
        with pytest.raises(ValueError):
            lobpcg_smallest(op, SolverConfig(k=4, block_size=4))

    def test_residual_norms_and_orthonormality(self):
        op = laplacian(path_string(StringSpec(30)), "standard")
        cfg = SolverConfig(k=3, block_size=5, tol=1e-9, max_iter=400, seed=5)
        s, _ = lobpcg_smallest(op, cfg)
        assert s.residual_norms.shape == s.converged.shape == (3,)
        A = op.dense()
        for c in range(3):
            expect = np.linalg.norm(A @ s.eigenvectors[:, c]
                                    - s.eigenvalues[c] * s.eigenvectors[:, c])
            assert s.residual_norms[c] == pytest.approx(expect, rel=1e-6, abs=1e-12)
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(3)).max() <= 1e-10
        assert (np.diff(s.eigenvalues) >= -1e-12).all()


def count_block_matvecs(op):
    """Record the column count of every block matvec the operator runs from now on."""
    calls = []
    inner = op._matmat

    def counting(X):
        calls.append(X.shape[1])
        return inner(X)

    op._matmat = counting
    return calls


class TestLobpcgMatvecCount:
    """One block matvec per iteration, plus the start block and the final residuals."""

    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_3000_mass_string(self, kind):
        g = path_string(StringSpec(3000, overrides=((1499, -0.05),)))
        op = laplacian(g, kind)
        calls = count_block_matvecs(op)
        cfg = SolverConfig(k=2 if kind == "standard" else 3, block_size=5, tol=1e-5,
                           max_iter=200, seed=1, deflate_ones=kind == "standard")
        _, trace = lobpcg_smallest(op, cfg)
        assert len(trace) == 200
        assert len(calls) <= len(trace) + 2

    def test_seeded_random_graph(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, n_max=200, density=0.05)
        op = laplacian(g, "standard")
        calls = count_block_matvecs(op)
        cfg = SolverConfig(k=3, block_size=4, tol=1e-9, max_iter=300, seed=2, deflate_ones=True)
        s, trace = lobpcg_smallest(op, cfg)
        assert s.converged.all() and len(trace) > 5
        assert len(calls) <= len(trace) + 2


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
    cfg = SolverConfig(k=k, block_size=m, tol=1e-9, max_iter=1000,
                       seed=draw(st.integers(0, 2**20)), deflate_ones=draw(st.booleans()),
                       precondition=draw(st.booleans()))
    return g, draw(st.sampled_from(["standard", "signed"])), cfg


@settings(max_examples=80, deadline=None)
@given(solver_cases())
def test_lobpcg_matches_dense_on_generated_graphs(case):
    """Converged pairs match the dense oracle; Ritz values never rise.

    The same bounds hold with and without the Jacobi preconditioner.
    """
    g, kind, cfg = case
    op = laplacian(g, kind)
    if cfg.deflate_ones:
        try:
            oracle = dense_spectrum_deflated(op)
        except ValueError:
            with pytest.raises(ValueError, match="not an eigenvector"):
                lobpcg_smallest(op, cfg)
            return
    else:
        oracle = dense_spectrum(op)
    s, trace = lobpcg_smallest(op, cfg)
    for c in np.flatnonzero(s.converged):
        assert abs(s.eigenvalues[c] - oracle.eigenvalues[c]) <= 1e-7
        # the eigenspace of every oracle eigenvalue within the matching tolerance
        J = np.flatnonzero(np.abs(oracle.eigenvalues - s.eigenvalues[c]) <= 1e-7)
        basis = oracle.eigenvectors[:, J]
        v = s.eigenvectors[:, c]
        assert math.asin(min(1.0, float(np.linalg.norm(v - basis @ (basis.T @ v))))) <= 1e-5
    ritz = np.array(trace.ritz_values)
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
    g, kind, _ = case
    op = laplacian(g, kind)
    lam_min = float(np.linalg.eigvalsh(op.dense())[0])
    assert op.gershgorin_lower <= lam_min + 1e-12 * max(1.0, op.norm_inf)
    assert op.gershgorin_lower <= 0.0


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
def test_lobpcg_fiedler_matches_eigsh_above_dense_threshold(kind):
    """Above the dense threshold the reference is scipy's ARPACK eigsh."""
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    n = 5000
    g = random_signed_arrays(n, 6 * n, seed=17)
    f = fiedler(g, kind, solver=SolverConfig(k=2, block_size=5, tol=1e-8, max_iter=500, seed=4))
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
