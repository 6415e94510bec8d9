"""Acceptance suite: every headline behavior at its frozen tolerance.

Each test prints one PASS line when its criterion holds (run with ``-s`` to
see them); a failed assert is the corresponding FAIL.  Runtime budgets are
asserted alongside the numerical claims.
"""

import math
import time

import numpy as np

from signedcut import (
    SolverConfig,
    StringSpec,
    bisect,
    cobra,
    cut_metrics,
    dense_spectrum,
    dumbbell,
    fiedler,
    gap_study,
    graph_from_edges,
    laplacian,
    lobpcg_smallest,
    negate_weights,
    noisy_string,
    nullify_negative,
    path_string,
    truncated_iteration_study,
)
from test_partition import same_split


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS ({elapsed:.2f}s) {detail}")


def random_signed_graph(rng, n_lo, n_hi, density=0.3):
    n = int(rng.integers(n_lo, n_hi + 1))
    mask = rng.uniform(size=(n, n)) < density
    vals = rng.uniform(-1, 1, size=(n, n))
    edges = [
        (i, j, float(vals[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
        if mask[i, j] and vals[i, j] != 0.0
    ]
    return graph_from_edges(n, edges)


def test_criterion_1_path_laplacian_and_dct_eigenvalues():
    t0 = time.perf_counter()
    for n in (3, 20, 75):
        L = laplacian(path_string(StringSpec(n)), "standard").dense()
        expected = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        expected[0, 0] = expected[-1, -1] = 1.0
        np.testing.assert_array_equal(L, expected)
        closed_form = 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)
        got = dense_spectrum(laplacian(path_string(StringSpec(n)), "standard")).eigenvalues
        assert np.abs(got - closed_form).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "path Laplacian tridiagonal, eigenvalues match 2-2cos(k*pi/n)")


def test_criterion_2_step_vector_annihilates_both_operators():
    t0 = time.perf_counter()
    n = 75
    g = path_string(StringSpec(n, overrides=((36, -1.0),)))
    x0 = np.where(np.arange(n) <= 36, 1.0, -1.0)
    res_signed = np.abs(laplacian(g, "signed").matmat(x0)).max()
    assert res_signed <= 1e-12
    g_deleted = nullify_negative(g)
    assert g_deleted.m == n - 2
    res_deleted = np.abs(laplacian(g_deleted, "standard").matmat(x0)).max()
    assert res_deleted <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(2, elapsed, f"step vector residuals {res_signed:.1e} (signed), {res_deleted:.1e} (deleted)")


def test_criterion_3_signed_cut_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        g = random_signed_graph(rng, 2, 40)
        side = rng.integers(0, 2, size=g.n).astype(np.int8)
        if side.sum() in (0, g.n):
            continue
        m = cut_metrics(g, side)
        assert abs(m.cut - (m.cut_plus - m.cut_minus_cross)) <= 1e-12
        assert abs(m.signed_cut - (2 * m.cut_plus + m.cut_minus_within_a + m.cut_minus_within_b)) <= 1e-12
        assert abs(m.signed_cut - (2 * m.cut_plus - m.cut_minus_cross + m.total_negative)) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(3, elapsed, "cut identities hold to 1e-12 on 100 random graphs")


def test_criterion_4_cobra_partitions():
    t0 = time.perf_counter()
    g = cobra()
    side = bisect(fiedler(g, "standard"))
    assert side[0] == side[1] and side[2] == side[3] and side[0] != side[2]
    p_deleted = bisect(fiedler(nullify_negative(g), "standard"))
    assert same_split(p_deleted, [0, 0, 0, 0, 1, 1])
    v2 = dense_spectrum(laplacian(g, "signed")).eigenvectors[:, 1]
    if v2[np.argmax(np.abs(v2))] < 0:
        v2 = -v2
    assert np.sign(v2[2]) != np.sign(v2[0]) == np.sign(v2[1]) != 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, elapsed, "cobra: {1,2}|{3,4} split, tail cut after deletion, signed v2 cuts vertex 3")


def test_criterion_5_dumbbell_partitions():
    t0 = time.perf_counter()
    g = dumbbell()
    p = bisect(fiedler(g, "standard"))
    assert same_split(p, [0] * 6 + [1] * 7)
    v = fiedler(g, "signed").vector
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    clique_b_sign = np.sign(v[6:13])
    assert (clique_b_sign == clique_b_sign[np.argmax(np.abs(v[6:13]))]).all()
    sign_b = clique_b_sign[0]
    assert np.sign(v[2]) == sign_b and np.sign(v[3]) == sign_b
    signs_a = np.sign(v[:6])
    assert len({s for s in signs_a if s != 0}) > 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, elapsed, "dumbbell: exact 6|7 split, signed vector non-constant with +3,+4")


def test_criterion_6_gap_study_ratios():
    t0 = time.perf_counter()
    doc = gap_study(100, 36, (-0.05,))
    row = doc["sweep"][0]
    assert 3.0 <= row["gap_standard_over_baseline"] <= 5.0
    assert 1 / 4.5 <= row["gap_signed_over_baseline"] <= 1 / 2.2
    assert 7.0 <= row["condition_signed_over_standard"] <= 18.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        6,
        elapsed,
        "gap ratios std/base %.2f, signed/base %.3f, cond signed/std %.1f"
        % (
            row["gap_standard_over_baseline"],
            row["gap_signed_over_baseline"],
            row["condition_signed_over_standard"],
        ),
    )


def test_criterion_7_lobpcg_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_eig, worst_angle = 0.0, 0.0
    for _ in range(50):
        g = random_signed_graph(rng, 8, 60)
        op = laplacian(g, "standard")
        k = 4
        cfg = SolverConfig(
            block_size=min(k + 2, g.n - 1),
            tol=1e-9,
            max_iter=2000,
            seed=int(rng.integers(1 << 20)),
        )
        s, trace = lobpcg_smallest(op, k, cfg)
        oracle = dense_spectrum(op)
        for c in range(k):
            if not s.converged[c]:
                continue
            err = abs(s.eigenvalues[c] - oracle.eigenvalues[c])
            worst_eig = max(worst_eig, err)
            assert err <= 1e-7
            # compare against the oracle eigenspace of all eigenvalues that
            # are indistinguishable at the matching tolerance: under exact
            # degeneracy the individual eigenvector is not unique
            J = np.flatnonzero(np.abs(oracle.eigenvalues - s.eigenvalues[c]) <= 1e-7)
            basis = oracle.eigenvectors[:, J]
            proj = basis @ (basis.T @ s.eigenvectors[:, c])
            angle = math.asin(min(1.0, float(np.linalg.norm(s.eigenvectors[:, c] - proj))))
            worst_angle = max(worst_angle, angle)
            assert angle <= 1e-5
        ritz = np.array(trace)
        if len(ritz) > 1:
            assert np.diff(ritz, axis=0).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, elapsed, f"50 graphs: worst eig err {worst_eig:.1e}, worst angle {worst_angle:.1e}")


def test_criterion_8_truncated_iteration_dominance():
    t0 = time.perf_counter()
    doc = truncated_iteration_study(75, 36, -0.05, iterations=30, seeds=20)
    counts = doc["sign_change_counts"]
    assert counts["standard_negative"] >= 18
    assert counts["baseline_zero"] < counts["standard_negative"]
    assert counts["signed_negative"] < counts["standard_negative"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        8,
        elapsed,
        "sign change at the negative edge: std %d/20, base %d/20, signed %d/20"
        % (counts["standard_negative"], counts["baseline_zero"], counts["signed_negative"]),
    )


def test_criterion_9_noisy_string_outcomes():
    t0 = time.perf_counter()
    expected = [0] * 8 + [1] * 4
    good_partition = 0
    warned = 0
    for seed in range(100):
        g = noisy_string(12, (7, -0.5), 1e-2, seed=seed)
        p = bisect(fiedler(g, "standard"))
        good_partition += same_split(p, expected)
        warned += fiedler(g, "signed").clustered_warning
    assert good_partition >= 95
    assert warned >= 90
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(9, elapsed, f"correct split {good_partition}/100, cluster warning {warned}/100")


def test_criterion_10_negation_duality():
    t0 = time.perf_counter()
    examples = [
        path_string(StringSpec(75)),
        path_string(StringSpec(75, overrides=((36, -0.05),))),
        path_string(StringSpec(75, overrides=((36, 0.05),))),
        cobra(),
        dumbbell(),
        noisy_string(12, (7, -0.5), 1e-2, seed=0),
    ]
    for g in examples:
        lhs = laplacian(negate_weights(g), "standard").dense()
        rhs = -laplacian(g, "standard").dense()
        np.testing.assert_array_equal(lhs, rhs)
    g = cobra()
    signed_lhs = laplacian(negate_weights(g), "signed").dense()
    signed_rhs = -laplacian(g, "signed").dense()
    assert np.abs(signed_lhs - signed_rhs).max() > 1.0
    elapsed = time.perf_counter() - t0
    _report(10, elapsed, "standard negation duality exact; signed analog fails on cobra")
