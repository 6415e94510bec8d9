import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signedcut import (
    CLUSTERED_GAP_FRACTION,
    BasisDegenerateError,
    DegenerateVectorError,
    EmptySideError,
    FiedlerResult,
    InsufficientSpectrumError,
    InvalidSideError,
    LaplacianKind,
    MultiComponentError,
    SignedCutError,
    SolverConfig,
    SolverFailedError,
    Spectrum,
    StringSpec,
    baseline_gap,
    bisect,
    cobra,
    confidence,
    cut_metrics,
    dense_spectrum,
    dumbbell,
    fiedler,
    graph_from_arrays,
    graph_from_edges,
    laplacian,
    negate_weights,
    noisy_string,
    nullify_negative,
    partition_json,
    path_string,
    scale_weights,
    select_fiedler,
)

import signedcut.eigen
import signedcut.partition
from signedcut.partition import ZERO_GAP_REL, finish_vector
from test_graph import random_graph


def make_result(vector, kind=LaplacianKind.STANDARD, eigenvalue=0.0):
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    eigenvalues = np.array([eigenvalue, eigenvalue + 1.0])
    return FiedlerResult(
        vector=v, eigenvalue=eigenvalue, kind=kind,
        skipped_constant=False, gap=1.0, clustered_warning=False,
        condition_number=1.0, eigenvalues=eigenvalues,
        spectrum=Spectrum(eigenvalues, v[:, None]), index=0,
    )


def random_connected_graph(rng, n_max=30):
    while True:
        g = random_graph(rng, n_max=n_max, density=0.4)
        from signedcut import connected_in_absolute_value

        if g.n >= 2 and connected_in_absolute_value(g):
            return g


def same_split(got, side):
    """Whether the side array ``got`` splits the vertices as the 0/1 labels ``side`` do, up to an A/B swap."""
    side = np.asarray(side)
    return np.array_equal(got, side) or np.array_equal(got, 1 - side)


def random_partition(rng, n):
    while True:
        side = rng.integers(0, 2, size=n).astype(np.int8)
        if 0 < side.sum() < n:
            return side


class TestFiedler:
    def test_unit_path_4_sign_pattern_and_eigenvalue(self):
        f = fiedler(path_string(StringSpec(4)), "standard")
        assert f.eigenvalue == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        v = f.vector if f.vector[0] > 0 else -f.vector
        assert (np.sign(v) == [1, 1, -1, -1]).all()
        assert abs(v @ np.ones(4)) / 2.0 <= 1e-8

    def test_single_negative_edge_signed(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        f = fiedler(g, "signed")
        assert f.eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert not f.skipped_constant
        assert f.vector[0] * f.vector[1] < 0

    def test_negative_edge_string_has_negative_eigenvalue_and_jump(self):
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        f = fiedler(g, "standard")
        assert f.eigenvalue < 0
        v = f.vector
        assert v[36] * v[37] < 0
        assert abs(v[36] - v[37]) > 4 * abs(v[35] - v[36])

    def test_positive_graph_signed_skips_constant(self):
        g = path_string(StringSpec(10))
        f_sgn = fiedler(g, "signed")
        f_std = fiedler(g, "standard")
        assert f_sgn.skipped_constant
        assert f_sgn.eigenvalue == pytest.approx(f_std.eigenvalue, abs=1e-10)
        assert abs(abs(f_sgn.vector @ f_std.vector) - 1.0) <= 1e-8

    def test_disconnected_raises(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(MultiComponentError):
            fiedler(g, "standard")

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_one_vertex_raises(self, kind):
        with pytest.raises(MultiComponentError) as info:
            fiedler(graph_from_edges(1, []), kind)
        assert str(info.value) == "need at least two vertices to bisect"

    def test_two_vertex_graph(self):
        f = fiedler(path_string(StringSpec(2)), "standard")
        assert f.eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert math.isinf(f.gap) and not f.clustered_warning
        assert same_split(bisect(f), [0, 1])

    def test_standard_vector_orthogonal_to_ones(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = random_connected_graph(rng)
            f = fiedler(g, "standard")
            assert abs(f.vector @ np.ones(g.n)) / math.sqrt(g.n) <= 1e-8
            assert np.linalg.norm(f.vector) == pytest.approx(1.0, abs=1e-12)

    def test_lobpcg_solver_route_matches_dense(self):
        g = dumbbell()
        cfg = SolverConfig(tol=1e-10, max_iter=500, seed=4)
        for kind in LaplacianKind:
            f_dense = fiedler(g, kind)
            f_iter = fiedler(g, kind, solver=cfg)
            assert f_iter.eigenvalue == pytest.approx(f_dense.eigenvalue, abs=1e-8)
            assert abs(abs(f_iter.vector @ f_dense.vector) - 1.0) <= 1e-6
            # the signed vector is 0 at vertices 4 and 5 up to rounding, so
            # rounding decides their side; compare the others up to a swap
            sure = np.abs(f_dense.vector) > 1e-8
            assert (np.abs(f_iter.vector[~sure]) <= 1e-8).all()
            same = (bisect(f_iter) == bisect(f_dense))[sure]
            assert same.all() or not same.any()

    def test_preconditioned_lobpcg_route_matches_dense(self):
        g = dumbbell()
        cfg = SolverConfig(tol=1e-10, max_iter=500, seed=4, precondition=True)
        for kind in LaplacianKind:
            f_dense = fiedler(g, kind)
            f_iter = fiedler(g, kind, solver=cfg)
            assert f_iter.eigenvalue == pytest.approx(f_dense.eigenvalue, abs=1e-8)
            assert abs(abs(f_iter.vector @ f_dense.vector) - 1.0) <= 1e-6
            # two components of the signed vector are exactly zero, so
            # rounding decides their side; compare the others up to a swap
            sure = np.abs(f_dense.vector) > 1e-8
            same = (bisect(f_iter) == bisect(f_dense))[sure]
            assert same.all() or not same.any()

    def test_lobpcg_unconverged_raises_solver_failed(self):
        g = path_string(StringSpec(60))
        cfg = SolverConfig(tol=1e-12, max_iter=2, seed=0)
        with pytest.raises(SolverFailedError, match=r"unconverged after 2 iterations \(residual \d"):
            fiedler(g, "standard", solver=cfg)

    def test_unconverged_message_quotes_the_final_residual(self, monkeypatch):
        # one iteration: the loop tests the start block's residual, then
        # updates the block; the message quotes the updated block's final
        # explicit residual, not the loop's last tested one
        solve, finals = signedcut.eigen.lobpcg_smallest, []
        check, tested = signedcut.eigen._residual_check, []

        def recording(*args, **kwargs):
            s, trace = solve(*args, **kwargs)
            finals.append(s.residual_norms[0])
            return s, trace

        def recording_check(*args):
            norms, converged = check(*args)
            tested.append(norms[0])
            return norms, converged

        monkeypatch.setattr(signedcut.eigen, "lobpcg_smallest", recording)
        monkeypatch.setattr(signedcut.eigen, "_residual_check", recording_check)
        g = path_string(StringSpec(60, overrides=((29, -0.05),)))
        with pytest.raises(SolverFailedError) as failed:
            fiedler(g, "signed", solver=SolverConfig(tol=1e-12, max_iter=1, seed=0, precondition=True))
        assert finals[-1] == tested[-1] > 1e-12
        assert f"(residual {finals[-1]:.3e})" in str(failed.value)
        assert f"{tested[-2]:.3e}" not in str(failed.value)

    def test_noisy_string_signed_clustered_warning(self):
        g = noisy_string(12, (7, -0.5), 1e-2, seed=0)
        f = fiedler(g, "signed")
        assert f.clustered_warning
        assert f.gap <= CLUSTERED_GAP_FRACTION * 4.0
        assert not fiedler(g, "standard").clustered_warning


def near_constant_ring(n):
    """A unit ring with one -1e-8 edge: the signed kind's lead vector is near-constant."""
    return graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, -1e-8)])


def positive_random_graph(seed):
    """A seeded connected random graph whose weights are all positive."""
    g = random_connected_graph(np.random.default_rng(seed))
    ii, jj, ww = g.edge_arrays()
    return graph_from_arrays(g.n, ii, jj, np.abs(ww))


class TestIterativeRoute:
    """One wanted pair: the Fiedler column converges, its partner gives the gap."""

    CFG = SolverConfig(tol=1e-8, max_iter=1000, seed=3, precondition=True)

    @pytest.mark.parametrize("g", [
        pytest.param(path_string(StringSpec(4)), id="path-4"),
        pytest.param(path_string(StringSpec(75)), id="path-75"),
        pytest.param(positive_random_graph(7), id="positive-random"),
    ])
    def test_signed_without_negative_edges_is_the_standard_solve(self, g):
        f_std = fiedler(g, "standard", solver=self.CFG)
        f_sgn = fiedler(g, "signed", solver=self.CFG)
        assert f_sgn.kind is LaplacianKind.SIGNED and f_std.kind is LaplacianKind.STANDARD
        np.testing.assert_array_equal(f_sgn.vector, f_std.vector)
        assert f_sgn.eigenvalue == f_std.eigenvalue
        np.testing.assert_array_equal(bisect(f_sgn), bisect(f_std))

    @pytest.mark.parametrize("g", [
        *(pytest.param(path_string(StringSpec(n)), id=f"path-{n}") for n in (3, 4, 10, 75)),
        pytest.param(positive_random_graph(7), id="positive-random"),
    ])
    def test_signed_without_negative_edges_matches_the_dense_route(self, g):
        dense, iterative = fiedler(g, "signed"), fiedler(g, "signed", solver=self.CFG)
        assert dense.skipped_constant and iterative.skipped_constant
        assert iterative.eigenvalues[0] == dense.eigenvalues[0] == 0.0
        tol = self.CFG.tol * max(1.0, abs(dense.eigenvalues[1]))
        np.testing.assert_allclose(iterative.eigenvalues[:2], dense.eigenvalues[:2], rtol=0, atol=tol)
        assert abs(iterative.eigenvalue - dense.eigenvalue) <= tol
        assert abs(iterative.gap - dense.gap) <= tol

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("block", [None, 5])
    def test_cobra_signed_vector_is_exactly_zero_at_vertex_1(self, seed, block):
        """The paper's degenerate example has no bisection on either route."""
        cfg = SolverConfig(block_size=block, seed=seed, precondition=True)
        f = fiedler(cobra(), "signed", solver=cfg)
        assert f.vector[0] == 0.0 and not math.copysign(1.0, f.vector[0]) < 0
        assert (f.vector[1:] > 0).all()
        with pytest.raises(DegenerateVectorError):
            bisect(f)

    def test_unconverged_partner_gap_is_an_upper_estimate(self):
        rng = np.random.default_rng(41)
        graphs = [path_string(StringSpec(75, overrides=((36, w),))) for w in (-0.05, -0.5, -1.0)]
        graphs += [random_connected_graph(rng) for _ in range(20)]
        estimates = 0
        for g in graphs:
            if g.n < 3:
                continue
            for kind in LaplacianKind:
                f = fiedler(g, kind, solver=self.CFG)
                assert f.gap_converged is not None
                dense = fiedler(g, kind)
                assert dense.gap_converged is None
                assert f.eigenvalue == pytest.approx(dense.eigenvalue, abs=1e-8)
                if not f.gap_converged:
                    estimates += 1
                    assert f.gap >= dense.gap - 1e-10
        assert estimates > 0

    @pytest.mark.parametrize("n", [10, 30, 200])
    def test_skipped_near_constant_column_reruns_for_two_pairs(self, n, monkeypatch):
        # a ring with one tiny negative edge: the signed kind's column 0 is
        # near-constant, and the first solve stops once it converges
        g = near_constant_ring(n)
        wanted = []
        solve = signedcut.eigen.lobpcg_smallest

        def recording(op, k, *args, **kwargs):
            wanted.append(k)
            return solve(op, k, *args, **kwargs)

        monkeypatch.setattr(signedcut.eigen, "lobpcg_smallest", recording)
        f = fiedler(g, "signed", solver=self.CFG)
        dense = fiedler(g, "signed")
        assert f.skipped_constant and dense.skipped_constant
        assert wanted == [1, 2]
        assert f.eigenvalue == pytest.approx(dense.eigenvalue, abs=1e-8)
        L = laplacian(g, "signed").dense()
        assert np.linalg.norm(L @ f.vector - f.eigenvalue * f.vector) <= 2e-8 * max(1.0, f.eigenvalue)

    def test_skipped_column_1_unconverged_after_the_rerun_raises(self):
        g = near_constant_ring(30)
        cfg = SolverConfig(tol=1e-8, max_iter=2, seed=3, precondition=True)
        with pytest.raises(SolverFailedError, match=r"near-constant column 0 .* column 1 unconverged"):
            fiedler(g, "signed", solver=cfg)

    def test_partition_json_reports_gap_converged_only_when_iterative(self):
        g = path_string(StringSpec(75, overrides=((36, -0.5),)))
        f = fiedler(g, "standard", solver=self.CFG)
        assert partition_json(f, bisect(f))["gap_converged"] is f.gap_converged
        dense = fiedler(g, "standard")
        assert "gap_converged" not in partition_json(dense, bisect(dense))


def reachable_arrays(obj) -> list:
    """Every ndarray reachable from obj through instance attributes, containers and array bases."""
    seen, stack, arrays = set(), [obj], []
    while stack:
        x = stack.pop()
        if x is None or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
            stack.append(x.base)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dict__") and not isinstance(x, type):
            stack.extend(vars(x).values())
    return arrays


class TestFiedlerRecord:
    """A ``FiedlerResult`` keeps the ``Spectrum`` it was selected from and the
    selected column; ``gap_converged`` reads the column after it."""

    BLOCK5 = SolverConfig(block_size=5, tol=1e-8, seed=0, precondition=True)

    @pytest.mark.parametrize("solver", [None, BLOCK5], ids=["dense", "lobpcg"])
    @pytest.mark.parametrize("g, kind, index, positive_signed", [
        pytest.param(path_string(StringSpec(75, overrides=((36, -0.5),))), "standard", 0, False,
                     id="string-standard"),
        pytest.param(path_string(StringSpec(75, overrides=((36, -0.5),))), "signed", 0, False, id="string-signed"),
        # column 0 is near-constant and skipped
        pytest.param(near_constant_ring(30), "signed", 1, False, id="ring-skipped"),
        # no negative edge: the standard solve, at index 0, under the signed kind
        pytest.param(path_string(StringSpec(10)), "signed", 0, True, id="positive-signed"),
    ])
    def test_result_keeps_the_spectrum_it_was_selected_from(self, g, kind, index, positive_signed, solver,
                                                            monkeypatch):
        select, selected = signedcut.partition.select_fiedler, []

        def recording(s, *args):
            selected.append(s)
            return select(s, *args)

        monkeypatch.setattr(signedcut.partition, "select_fiedler", recording)
        f = fiedler(g, kind, solver=solver)
        assert f.spectrum is selected[-1] and f.index == index
        assert f.eigenvalue == f.spectrum.eigenvalues[index]
        np.testing.assert_array_equal(f.vector, finish_vector(f.spectrum.eigenvectors[:, index]))
        if solver is None:
            assert f.spectrum.converged is None and f.spectrum.iterations == 0
        else:
            assert f.spectrum.eigenvectors.shape == (g.n, 5) and f.spectrum.iterations > 0
        if positive_signed:
            # the standard solve's spectrum, without the ones pair the result reports
            assert f.skipped_constant
            np.testing.assert_array_equal(f.eigenvalues, np.concatenate(([0.0], f.spectrum.eigenvalues)))

    @pytest.mark.parametrize("g, kind, index, want", [
        # the partner is column 2 of a block whose column 1 converged
        pytest.param(near_constant_ring(30), "signed", 1, False, id="ring-skipped"),
        pytest.param(near_constant_ring(10), "signed", 1, True, id="ring-10-skipped"),
        # skipped_constant is set, but the selected column is 0 and its partner 1
        pytest.param(path_string(StringSpec(10)), "signed", 0, True, id="positive-signed"),
        pytest.param(path_string(StringSpec(10)), "standard", 0, True, id="positive-standard"),
        pytest.param(path_string(StringSpec(75, overrides=((36, -0.5),))), "standard", 0, False, id="string"),
    ])
    def test_gap_converged_reads_the_selected_columns_partner(self, g, kind, index, want):
        f = fiedler(g, kind, solver=self.BLOCK5)
        assert f.index == index
        assert f.gap_converged is want is bool(f.spectrum.converged[index + 1])
        assert fiedler(g, kind).gap_converged is None

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    @pytest.mark.parametrize("g", [
        pytest.param(path_string(StringSpec(300, overrides=((149, -0.05),))), id="string"),
        pytest.param(near_constant_ring(300), id="ring"),
        pytest.param(path_string(StringSpec(300)), id="positive"),
    ])
    def test_result_holds_no_dense_matrix(self, g, kind):
        """The dense route's spectrum holds its solved columns, never the n x n matrix;
        the iterative route's nothing larger than its (n, m) block."""
        n = g.n
        dense = reachable_arrays(fiedler(g, kind))
        assert dense and max(a.size for a in dense) < n * n
        iterative = reachable_arrays(fiedler(g, kind, solver=self.BLOCK5))
        assert max(a.size for a in iterative) <= n * 5


SIGN_GRAPHS = {
    "cobra": cobra(),
    "dumbbell": dumbbell(),
    "string": path_string(StringSpec(75, overrides=((36, -0.05),))),
    "random": random_connected_graph(np.random.default_rng(33)),
}


@pytest.mark.parametrize("solver", [
    None, SolverConfig(tol=1e-8, max_iter=1000, seed=0, precondition=True),
], ids=["dense", "lobpcg"])
@pytest.mark.parametrize("kind", ["standard", "signed"])
@pytest.mark.parametrize("name", list(SIGN_GRAPHS))
def test_written_fiedler_sign_matches_sides(name, kind, solver):
    """The written vector has bisect's sign, so side 1 is exactly its negative components."""
    f = fiedler(SIGN_GRAPHS[name], kind, solver=solver)
    assert f.vector[np.argmax(np.abs(f.vector))] > 0
    try:
        p = bisect(f, zero_policy="positive-side")
    except DegenerateVectorError:
        assert name == "cobra" and kind == "signed"
        return
    doc = partition_json(f, p)
    assert doc["side"] == [int(x < 0) for x in doc["fiedler"]]


class TestBisect:
    def test_simple_split(self):
        p = bisect(make_result([0.6, 0.5, -0.5, -0.6]))
        assert p.tolist() == [0, 0, 1, 1]

    def test_zero_policy(self):
        f = make_result([1.0, 0.0, -1.0])
        assert bisect(f, "positive-side").tolist() == [0, 0, 1]
        assert bisect(f, "negative-side").tolist() == [0, 1, 1]

    def test_global_sign_normalization(self):
        # a vector and its negation give the same int8 side array, also where
        # the largest magnitude ties (vertices 1 and 3: the first one sets the
        # sign) and the exact zero is -0.0 in one of the two
        for v in ([0.6, 0.5, -0.5, -0.6], [0.2, -0.7, 0.0, 0.7, -0.1]):
            for zero_policy in ("positive-side", "negative-side"):
                side = bisect(make_result(v), zero_policy)
                assert isinstance(side, np.ndarray) and side.dtype == np.int8
                np.testing.assert_array_equal(bisect(make_result(-np.asarray(v)), zero_policy), side)
        assert bisect(make_result([0.2, -0.7, 0.0, 0.7, -0.1]), "negative-side").tolist() == [1, 0, 1, 1, 0]

    def test_one_sign_raises(self):
        with pytest.raises(DegenerateVectorError):
            bisect(make_result([0.5, 0.5, 0.7], kind=LaplacianKind.SIGNED))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            bisect(make_result([1.0, -1.0]), "coin-flip")

    def test_dumbbell_standard_expected_split(self):
        assert same_split(bisect(fiedler(dumbbell(), "standard")), [0] * 6 + [1] * 7)


class TestFinisher:
    """select_fiedler alone finishes a Fiedler vector: unit norm, bisect's sign, exact zeros."""

    @pytest.mark.parametrize("converged", [None, np.array([True, False])], ids=["dense", "iterative"])
    def test_select_fiedler_orients_and_sets_exact_zeros(self, converged):
        v = np.array([0.3, -0.8, 1e-18, 0.5])
        partner = np.array([0.5, 0.5, -0.5, -0.5])
        residuals = None if converged is None else np.array([1e-12, 1e-3])
        s = Spectrum(np.array([0.25, 1.0]), np.column_stack((v, partner)), residuals, converged)
        f = select_fiedler(s, "standard")
        assert not f.skipped_constant
        assert f.gap_converged is (None if converged is None else False)
        assert np.linalg.norm(f.vector) == pytest.approx(1.0, abs=1e-15)
        # the largest component, -0.8, is made positive; 1e-18 is rounding
        np.testing.assert_allclose(f.vector, np.array([-0.3, 0.8, 0.0, -0.5]) / math.sqrt(0.98), rtol=1e-15)
        assert f.vector[2] == 0.0 and math.copysign(1.0, f.vector[2]) == 1.0
        assert bisect(f).tolist() == [1, 0, 0, 1]


class TestConfidence:
    def test_squares(self):
        f = make_result([1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)])
        np.testing.assert_allclose(confidence(f), [0.5, 0.0, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_connected_graph(rng)
            c = confidence(fiedler(g, "standard"))
            assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unit_string_vanishes_mid_string(self):
        f = fiedler(path_string(StringSpec(75)), "standard")
        c = confidence(f)
        assert set(np.argsort(c)[:2]) <= {36, 37, 38}

    def test_repulsion_beats_weak_link_at_the_edge(self):
        weak = fiedler(path_string(StringSpec(75, overrides=((36, 0.05),))), "standard")
        repel = fiedler(path_string(StringSpec(75, overrides=((36, -0.05),))), "standard")
        cw, cr = confidence(weak), confidence(repel)
        assert cr[36] > cw[36] and cr[37] > cw[37]


class TestCutMetrics:
    def test_cobra_split_12(self):
        p = np.array([0, 0, 1, 1, 1, 1], dtype=np.int8)
        m = cut_metrics(cobra(), p)
        assert m.cut == 0.0
        assert m.cut_plus == 1.0
        assert m.cut_minus_cross == 1.0
        assert m.signed_cut == 2.0
        assert m.ratio_cut == 0.0
        assert m.total_negative == 1.0

    def test_dumbbell_expected_split(self):
        side = np.array([0] * 6 + [1] * 7, dtype=np.int8)
        m = cut_metrics(dumbbell(), side)
        assert m.cut == 0.0
        assert m.cut_plus == 2.0
        assert m.cut_minus_cross == 2.0
        assert m.signed_cut == 4.0
        assert m.cut_minus_within_a == 0.0 and m.cut_minus_within_b == 0.0

    def test_empty_side(self):
        with pytest.raises(EmptySideError):
            cut_metrics(cobra(), np.zeros(6, dtype=np.int8))

    def test_size_mismatch(self):
        with pytest.raises(EmptySideError):
            cut_metrics(cobra(), np.array([0, 1], dtype=np.int8))

    @pytest.mark.parametrize("side, message", [
        ([0, 1, 2, 1], "vertex 2 (0-based) has side 2; sides are 0 and 1"),
        ([0, 0, 1, 1.5], "vertex 3 (0-based) has side 1.5; sides are 0 and 1"),
        ([-1, 0, 1, 1], "vertex 0 (0-based) has side -1; sides are 0 and 1"),
        ([0, 1, float("nan"), 1], "vertex 2 (0-based) has side nan; sides are 0 and 1"),
    ], ids=["three-way", "fraction", "negative", "nan"])
    def test_other_labels_raise(self, side, message):
        with pytest.raises(InvalidSideError) as raised:
            cut_metrics(path_string(StringSpec(4)), np.array(side))
        assert str(raised.value) == message
        assert isinstance(raised.value, SignedCutError) and isinstance(raised.value, ValueError)

    def test_float_and_bool_zero_one_labels_are_sides(self):
        g = path_string(StringSpec(4))
        want = cut_metrics(g, np.array([0, 0, 1, 1]))
        assert cut_metrics(g, np.array([0.0, 0.0, 1.0, 1.0])) == want
        assert cut_metrics(g, np.array([False, False, True, True])) == want

    def test_identities_on_random_graphs(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            g = random_graph(rng)
            if g.n < 2:
                continue
            p = random_partition(rng, g.n)
            m = cut_metrics(g, p)
            assert abs(m.cut - (m.cut_plus - m.cut_minus_cross)) <= 1e-12
            assert abs(
                m.signed_cut - (2 * m.cut_plus - m.cut_minus_cross + m.total_negative)
            ) <= 1e-12
            assert abs(
                m.signed_cut
                - (2 * m.cut_plus + m.cut_minus_within_a + m.cut_minus_within_b)
            ) <= 1e-12
            sizes = 1 / np.count_nonzero(p == 0) + 1 / np.count_nonzero(p == 1)
            assert m.ratio_cut == pytest.approx(m.cut * sizes, abs=1e-12)
            assert m.signed_ratio_cut == pytest.approx(m.signed_cut * sizes, abs=1e-12)


class TestInvariants:
    def test_scale_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = random_connected_graph(rng)
            c = float(rng.uniform(0.1, 10.0))
            p1 = bisect(fiedler(g, "standard"))
            p2 = bisect(fiedler(scale_weights(g, c), "standard"))
            assert same_split(p2, p1)

    @pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_extreme_weight_scales(self, c, kind):
        """The dense route works at any weight scale: its solves run on a power-of-two rescaled matrix."""
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, -0.5), (2, 3, 2.0), (3, 4, 1.0), (0, 4, 0.25)])
        f1, fc = fiedler(g, kind), fiedler(scale_weights(g, c), kind)
        assert fc.eigenvalue / c == pytest.approx(f1.eigenvalue, rel=1e-12)
        assert abs(float(fc.vector @ f1.vector)) == pytest.approx(1.0, abs=1e-12)
        b1, bc = baseline_gap(g), baseline_gap(scale_weights(g, c))
        assert bc.eigenvalue / c == pytest.approx(b1.eigenvalue, rel=1e-12)
        assert bc.gap / c == pytest.approx(b1.gap, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            g = random_connected_graph(rng)
            perm = rng.permutation(g.n)
            ii, jj, ww = g.edge_arrays()
            g2 = graph_from_arrays(g.n, perm[ii], perm[jj], ww)
            p1 = bisect(fiedler(g, "standard"))
            p2 = bisect(fiedler(g2, "standard"))
            image = np.empty_like(p1)
            image[perm] = p1
            assert same_split(p2, image)

    def test_standard_partition_always_nontrivial(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            g = random_connected_graph(rng)
            p = bisect(fiedler(g, "standard"))
            assert (p == 0).any() and (p == 1).any()

    def test_piecewise_constant_null_vector(self):
        """The +/-1 step vector annihilates both the signed Laplacian of the
        one-negative-edge string and the standard Laplacian with that edge
        deleted."""
        g = path_string(StringSpec(75, overrides=((36, -1.0),)))
        x0 = np.where(np.arange(75) <= 36, 1.0, -1.0)
        signed_op = laplacian(g, "signed")
        assert np.abs(signed_op.matmat(x0)).max() <= 1e-12
        deleted = nullify_negative(g)
        assert np.abs(laplacian(deleted, "standard").matmat(x0)).max() <= 1e-12

    def test_negation_duality_on_dumbbell(self):
        g = dumbbell()
        f = fiedler(g, "standard")
        f_neg = fiedler(negate_weights(g), "standard")
        p = bisect(f)
        p_neg = bisect(f_neg)
        assert not same_split(p_neg, p)
        # spectra mirror exactly: the negated Fiedler value is minus the top
        # of the ones-orthogonal spectrum of the original
        top = dense_spectrum(laplacian(g, "standard")).eigenvalues[-1]
        assert f_neg.eigenvalue == pytest.approx(-top, abs=1e-10)
        m = cut_metrics(g, p)
        m_neg = cut_metrics(g, p_neg)
        # the min-cut split severs positive and negative weight evenly and
        # has zero net cut; the max-cut-flavored split severs mostly
        # positive weight and a large net cut
        assert m.cut_plus == 2.0 and m.cut_minus_cross == 2.0 and m.cut == 0.0
        assert m_neg.cut_plus > m_neg.cut_minus_cross
        assert m_neg.cut >= 10.0

    def test_cobra_signed_lead_vector_degenerate(self):
        f = fiedler(cobra(), "signed")
        with pytest.raises(DegenerateVectorError):
            bisect(f)

    def test_partition_json_schema(self):
        g = dumbbell()
        f = fiedler(g, "standard")
        p = bisect(f)
        doc = partition_json(f, p, confidence(f))
        assert set(doc) == {
            "n", "side", "fiedler", "eigenvalue", "kind", "gap",
            "clustered_warning", "confidence",
        }
        assert doc["n"] == 13 and doc["kind"] == "standard"
        assert sorted(set(doc["side"])) == [0, 1]


@st.composite
def connected_signed_graphs(draw):
    """Connected signed graphs, n <= 40: a spanning path over a random order plus
    random pairs.  Weights are uniform in +-2 or from a small set, which makes
    repeated eigenvalues and exact ties; a third of the graphs have no
    negative edge."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    a, b = rng.integers(0, n, size=(2, draw(st.integers(0, 2 * n))))
    lo = np.concatenate([np.minimum(order[:-1], order[1:]), np.minimum(a, b)[a != b]])
    hi = np.concatenate([np.maximum(order[:-1], order[1:]), np.maximum(a, b)[a != b]])
    _, first = np.unique(lo * n + hi, return_index=True)
    if draw(st.booleans()):
        w = rng.uniform(0.05, 2.0, size=len(first)) * rng.choice([-1.0, 1.0], size=len(first))
    else:
        w = rng.choice([-1.0, 0.5, 1.0], size=len(first))
    if draw(st.integers(0, 2)) == 0:
        w = np.abs(w)
    return graph_from_arrays(n, lo[first], hi[first], w)


@st.composite
def uniform_complete_graphs(draw):
    """K_n, n = 3 to 12, with one weight on every edge: every eigenvalue of either
    kind but the ones pair's is one repeated value, so every Fiedler gap is zero."""
    n = draw(st.integers(3, 12))
    w = draw(st.floats(0.01, 100.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return graph_from_edges(n, [(i, j, w) for i in range(n) for j in range(i + 1, n)])


def orientation_is_rounding(v, tol):
    """Whether rounding decides the side of v's exact zeros.

    ``bisect`` turns v so that its largest component is positive, and the
    exact zeros go with that side.  Where a component of the other sign is
    within ``tol`` of the largest magnitude, the turn is decided by rounding.
    """
    near = np.abs(v) >= np.abs(v).max() - tol
    return bool((v == 0.0).any() and (v[near] > 0.0).any() and (v[near] < 0.0).any())


def sides_or_none(f):
    """bisect's sides of a Fiedler result, or None when its components have one sign."""
    try:
        return bisect(f)
    except DegenerateVectorError:
        return None


class TestGeneratedInvariants:
    """The seeded invariants of ``TestInvariants`` on generated graphs, dense route.

    Measured first on 500 draws of ``connected_signed_graphs`` (both kinds),
    with scale = max(1, ||L||_inf): permuting the vertices moved the Fiedler
    eigenvalue by at most 1.7e-15 * scale and the vector by at most
    2.5e-14 * scale / gap.  The smallest gap drawn was 9.9e-4 * scale;
    another generator drew exactly degenerate Fiedler eigenvalues (gap below
    1e-12 * scale), whose vector is any one of its eigenspace.
    """

    MIN_GAP = 1e-4  # times scale: draws below it are skipped

    @settings(max_examples=100, deadline=None)
    @given(connected_signed_graphs(), st.sampled_from(list(LaplacianKind)), st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, g, kind, rnd):
        f1 = fiedler(g, kind)
        scale = max(1.0, laplacian(g, kind).norm_inf)
        assume(f1.gap >= self.MIN_GAP * scale)
        perm = np.array(rnd.sample(range(g.n), g.n))
        ii, jj, ww = g.edge_arrays()
        f2 = fiedler(graph_from_arrays(g.n, perm[ii], perm[jj], ww), kind)
        assert abs(f2.eigenvalue - f1.eigenvalue) <= 1e-13 * scale
        assert f2.skipped_constant == f1.skipped_constant
        # each vector's residual is below the dense route's one limit, 1e-13 *
        # ||L||_inf, so each lies within 1.5e-13 * scale / gap of the exact
        # vector, and the two within 3e-13 * scale / gap (Davis-Kahan)
        tol = 1e-14 + 3e-13 * scale / f1.gap
        v1, v2 = f1.vector, f2.vector[perm]
        assert min(np.abs(v2 - v1).max(), np.abs(v2 + v1).max()) <= tol
        # a nonzero component within the error of 0 has a rounding sign
        assume(not ((np.abs(v1) <= tol) & (v1 != 0)).any())
        assume(not ((np.abs(v2) <= tol) & (v2 != 0)).any())
        # an exact zero's side follows the largest component's sign, which is
        # rounding where a component of the other sign ties with it (see
        # test_automorphic_triangle_takes_one_of_its_two_splits)
        assume(not orientation_is_rounding(v1, tol) and not orientation_is_rounding(v2, tol))
        s1, s2 = sides_or_none(f1), sides_or_none(f2)
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            assert same_split(s2[perm], s1)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(connected_signed_graphs(), uniform_complete_graphs()), st.sampled_from(list(LaplacianKind)))
    def test_a_zero_gap_is_flagged(self, g, kind):
        """A dense Fiedler gap at or below ZERO_GAP_REL (|lambda_F| + |top|) is
        rounding: flagged, with condition number +inf.  Any other gap keeps
        the condition number spread / gap."""
        f = fiedler(g, kind)
        top = f.eigenvalues[-1]
        if f.gap <= ZERO_GAP_REL * (abs(f.eigenvalue) + abs(top)):
            assert f.clustered_warning and math.isinf(f.condition_number)
        else:
            assert f.condition_number == (top - f.eigenvalue) / f.gap

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_automorphic_triangle_takes_one_of_its_two_splits(self, perm):
        """The triangle (0,1,0.5), (0,2,0.5), (1,2,-1), standard kind, under each labelling.

        Its Fiedler vector is (0, -a, a) up to rounding, and swapping
        vertices 1 and 2 is an automorphism, so no rule on labels can place
        vertex 0 equivariantly: rounding picks {0,1}|{2} or {0,2}|{1}, and
        either is a right answer.
        """
        p = np.array(perm)
        g = graph_from_arrays(3, p[[0, 0, 1]], p[[1, 2, 2]], np.array([0.5, 0.5, -1.0]))
        f = fiedler(g, "standard")
        assert orientation_is_rounding(f.vector, 1e-14)
        side = bisect(f)[p]
        assert same_split(side, [0, 0, 1]) or same_split(side, [0, 1, 0])

    @settings(max_examples=100, deadline=None)
    @given(connected_signed_graphs())
    def test_standard_negation_duality(self, g):
        """Negating every weight negates the standard Laplacian exactly: each
        degree is the same sum of the negated weights, in the same order."""
        negated = laplacian(negate_weights(g), "standard").dense()
        assert np.array_equal(negated, -laplacian(g, "standard").dense())

    @settings(max_examples=100, deadline=None)
    @given(connected_signed_graphs(), st.randoms(use_true_random=False))
    def test_cut_identities(self, g, rnd):
        """The three cut identities of acceptance criterion 3 on random two-sided partitions."""
        side = np.array([rnd.randint(0, 1) for _ in range(g.n)], dtype=np.int8)
        a = rnd.randrange(g.n)
        side[a], side[(a + 1 + rnd.randrange(g.n - 1)) % g.n] = 0, 1
        m = cut_metrics(g, side)
        tol = 1e-12 * float(np.abs(g.edge_arrays()[2]).sum())
        assert abs(m.cut - (m.cut_plus - m.cut_minus_cross)) <= tol
        assert abs(m.signed_cut - (2 * m.cut_plus + m.cut_minus_within_a + m.cut_minus_within_b)) <= tol
        assert abs(m.signed_cut - (2 * m.cut_plus - m.cut_minus_cross + m.total_negative)) <= tol

    @settings(max_examples=100, deadline=None)
    @given(connected_signed_graphs(), st.sampled_from(list(LaplacianKind)), st.integers(-100, 100))
    def test_power_of_two_scale_invariance(self, g, kind, k):
        """The solves run on the matrix scaled to unit norm by a power of two,
        which is the same matrix for every scale: the eigenvalues scale
        exactly and the vector and sides are the same.  (The one shifted
        solve's residual was at most 6.7e-13 on 5000 draws, below both
        scales' limits, so neither takes a second one.)"""
        c = 2.0**k
        f1, fc = fiedler(g, kind), fiedler(scale_weights(g, c), kind)
        assert np.array_equal(fc.eigenvalues, c * f1.eigenvalues)
        assert (fc.eigenvalue, fc.gap) == (c * f1.eigenvalue, c * f1.gap)
        assert (fc.condition_number, fc.clustered_warning, fc.skipped_constant) == (
            f1.condition_number, f1.clustered_warning, f1.skipped_constant)
        assert np.array_equal(fc.vector, f1.vector)
        s1, sc = sides_or_none(f1), sides_or_none(fc)
        assert (s1 is None and sc is None) or np.array_equal(s1, sc)


def assert_dense_fiedler_matches_eigh(f, op, reference):
    """Eigenvalues, residual, angle and exact zeros of a dense-route Fiedler result.

    ``reference`` is the eigh spectrum the result must reproduce: the full one
    for the signed kind, the ones-deflated one for the standard kind.
    """
    scale = max(1.0, op.norm_inf)
    np.testing.assert_allclose(f.eigenvalues, reference.eigenvalues, rtol=0, atol=1e-12 * scale)
    v, lam = f.vector, f.eigenvalue
    res = float(np.linalg.norm(op.matmat(v) - lam * v))
    assert res <= 1e-10 * scale
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    idx = 1 if f.skipped_constant else 0
    others = np.delete(reference.eigenvalues, idx)
    gap = float(np.abs(others - reference.eigenvalues[idx]).min()) if len(others) else math.inf
    # Davis-Kahan, with both vectors' rounding; a lone eigenvalue (gap inf) leaves rounding only
    sin_bound = 2.0 * max(res, 1e-12 * scale) / gap + 1e-14 if gap > 0 else math.inf
    if sin_bound < 1.0:
        u = reference.eigenvectors[:, idx]
        assert np.linalg.norm(v - (v @ u) * u) <= sin_bound
    # every component is an exact zero or above rounding level
    tiny = np.abs(v) <= 0.5 * len(v) * np.finfo(float).eps * np.abs(v).max()
    assert (v[tiny] == 0.0).all()


def record_singular_solves(monkeypatch) -> list:
    """Record the operand shape of every np.linalg.solve call that finds its matrix singular."""
    singular = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    return singular


def deflated_eigh(op):
    """eigh of the operator on a QR-built orthonormal basis of the ones complement."""
    n = op.n
    Q = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))[0][:, 1:]
    evals, Y = np.linalg.eigh(Q.T @ op.dense() @ Q)
    return Spectrum(eigenvalues=evals, eigenvectors=Q @ Y)


class TestDenseRoute:
    """All eigenvalues from eigvalsh, the Fiedler vector from a shifted solve."""

    @settings(max_examples=60, deadline=None)
    @given(connected_signed_graphs(), st.sampled_from(list(LaplacianKind)))
    def test_matches_eigh(self, g, kind):
        f = fiedler(g, kind)
        op = laplacian(g, kind)
        if kind is LaplacianKind.STANDARD:
            reference = deflated_eigh(op)
            assert abs(f.vector.sum()) <= 1e-12 * math.sqrt(g.n)
        else:
            reference = dense_spectrum(op)
        assert_dense_fiedler_matches_eigh(f, op, reference)

    @settings(max_examples=30, deadline=None)
    @given(connected_signed_graphs())
    def test_baseline_matches_eigh(self, g):
        """The baseline's eigenvalues match eigh, and its diagnostics are select_fiedler's on them."""
        op = laplacian(nullify_negative(g), "standard")
        reference = deflated_eigh(op)
        b = baseline_gap(g)
        scale = max(1.0, op.norm_inf)
        np.testing.assert_allclose(b.eigenvalues, reference.eigenvalues, rtol=0, atol=1e-12 * scale)
        f = select_fiedler(Spectrum(b.eigenvalues, reference.eigenvectors), "standard")
        assert not f.skipped_constant
        assert (b.eigenvalue, b.gap, b.condition_number, b.clustered_warning) == (
            f.eigenvalue, f.gap, f.condition_number, f.clustered_warning)

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_two_and_three_vertex_paths(self, kind, monkeypatch):
        singular = record_singular_solves(monkeypatch)
        f2 = fiedler(path_string(StringSpec(2)), kind)
        # the 1-by-1 ones-complement of the 2-path minus its own eigenvalue is exactly 0
        assert singular == [(1, 1)]
        assert f2.eigenvalue == pytest.approx(2.0, abs=1e-14)
        assert same_split(bisect(f2), [0, 1])
        f3 = fiedler(path_string(StringSpec(3)), kind)
        assert f3.eigenvalue == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(np.abs(f3.vector), [math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-15)
        assert f3.vector[1] == 0.0  # rounding at the middle vertex became an exact zero

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_a_shift_that_stays_singular_is_a_failed_solve(self, kind, monkeypatch):
        """The dense route fails as the iterative one does: BasisDegenerateError is a SolverFailedError."""
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        g = cobra()
        lam = float(dense_spectrum(laplacian(g, kind), kind.deflates_ones, k=0).eigenvalues[0])
        monkeypatch.setattr(signedcut.eigen.np.linalg, "solve", singular)
        with pytest.raises(SolverFailedError) as failed:
            fiedler(g, kind)
        assert str(failed.value) == f"shifted solve at eigenvalue {lam!r} stayed singular"
        assert issubclass(BasisDegenerateError, SolverFailedError)

    def test_single_negative_edge_signed_is_exactly_singular(self, monkeypatch):
        singular = record_singular_solves(monkeypatch)
        f = fiedler(graph_from_edges(2, [(0, 1, -1.0)]), "signed")
        assert singular == [(2, 2)]
        assert f.eigenvalue == 0.0
        np.testing.assert_allclose(abs(f.vector), math.sqrt(0.5), atol=1e-15)
        assert f.vector[0] * f.vector[1] < 0

    def test_cobra_signed_vector_is_exactly_zero_at_vertex_1(self):
        f = fiedler(cobra(), "signed")
        assert f.vector[0] == 0.0 and not math.copysign(1.0, f.vector[0]) < 0
        assert (f.vector[1:] > 0).all()
        with pytest.raises(DegenerateVectorError):
            bisect(f)
        assert bisect(f, zero_policy="negative-side").tolist() == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("k, message", [(1, "spectrum too small after skipping the constant vector"),
                                            (0, "spectrum holds no eigenvector")])
    def test_too_few_vectors_raise(self, k, message):
        """The guard counts vectors, not eigenvalues: every eigenvalue with k vectors is
        too small once the constant column 0 is skipped."""
        s = dense_spectrum(laplacian(near_constant_ring(30), "signed"), k=k)
        assert s.k == 30 and s.eigenvectors.shape == (30, k)
        with pytest.raises(InsufficientSpectrumError) as raised:
            select_fiedler(s, "signed")
        assert str(raised.value) == message

    @pytest.mark.parametrize("n", [10, 30, 200])
    def test_near_constant_ring_skips_to_column_1(self, n):
        g = near_constant_ring(n)
        f = fiedler(g, "signed")
        op = laplacian(g, "signed")
        assert f.skipped_constant
        assert_dense_fiedler_matches_eigh(f, op, dense_spectrum(op))
        # projected off the near-constant column 0
        assert abs(f.vector.sum()) <= 1e-6


class TestKindsWithoutNegativeEdges:
    """Without negative edges the two Laplacians are one matrix, so both
    kinds must return the same vector and the same sides, bit for bit."""

    @staticmethod
    def assert_kinds_identical(g):
        fs, fg = fiedler(g, "standard"), fiedler(g, "signed")
        np.testing.assert_array_equal(fs.vector, fg.vector)
        np.testing.assert_array_equal(bisect(fs), bisect(fg))
        assert fg.kind is LaplacianKind.SIGNED and fg.skipped_constant
        assert fg.eigenvalue == fs.eigenvalue and fg.gap == fs.gap
        # the signed spectrum keeps its ones pair, as an exact 0.0
        np.testing.assert_array_equal(fg.eigenvalues, np.concatenate(([0.0], fs.eigenvalues)))

    def test_unit_paths(self):
        for n in range(3, 80):
            self.assert_kinds_identical(path_string(StringSpec(n)))

    def test_random_positive_graph(self):
        rng = np.random.default_rng(8)
        n = 60
        edges = {(i, i + 1): 1.0 for i in range(n - 1)}
        for i, j in rng.integers(0, n, size=(200, 2)):
            if i != j:
                edges[(int(min(i, j)), int(max(i, j)))] = float(rng.uniform(0.1, 2.0))
        self.assert_kinds_identical(
            graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()])
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_positive_graphs(self, seed):
        self.assert_kinds_identical(positive_random_graph(seed))

    def test_dumbbell_without_negative_edges(self):
        self.assert_kinds_identical(nullify_negative(dumbbell()))


def test_cobra_three_partitions():
    """Standard: split 1,2 vs 3,4; edge-deleted: cut the weak tail; signed
    second eigenvector: cut vertex 3 off from 1 and 2 (1-based labels)."""
    g = cobra()
    side = bisect(fiedler(g, "standard"))
    assert side[0] == side[1] != side[2] == side[3]

    p_null = bisect(fiedler(nullify_negative(g), "standard"))
    assert same_split(p_null, [0, 0, 0, 0, 1, 1])

    s = dense_spectrum(laplacian(g, "signed"))
    v2 = s.eigenvectors[:, 1]
    if v2[np.argmax(np.abs(v2))] < 0:
        v2 = -v2
    assert v2[2] < 0 < min(v2[0], v2[1])
