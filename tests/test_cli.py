import csv
import json
import re

import numpy as np
import pytest

from signedcut import (
    BasisDegenerateError,
    SolverConfig,
    Spectrum,
    StringSpec,
    baseline_gap,
    cobra,
    cut_metrics,
    dumbbell,
    fiedler,
    graph_from_arrays,
    graph_from_edges,
    laplacian,
    load_graph,
    lobpcg_smallest,
    noisy_string,
    path_string,
    save_graph,
    scale_weights,
)
import signedcut.cli
import signedcut.eigen
import signedcut.experiments
import signedcut.partition
from signedcut.cli import main


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which RFC 8259 does not have."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = strict_json(captured.err.strip().splitlines()[-1])
    return code, captured.out, report


def mode_csv_eigenvalues(path) -> list[float]:
    """The eigenvalue row of an eigenmode CSV."""
    rows = list(csv.reader(open(path, newline="")))
    return [float(x) for x in rows[1][1:]]


def count_dense_eigensolves(monkeypatch) -> list:
    """Record the name and operand shape of every np.linalg.eigh and eigvalsh call from now on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _solve=solve, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def record_dense_spectra(monkeypatch) -> tuple[list, list]:
    """Record every ``dense_spectrum`` call from now on, as its k, wherever a
    signedcut module binds it, and every dense eigensolve or linear solve made
    outside one."""
    calls, outside, depth = [], [], [0]
    spectrum = signedcut.eigen.dense_spectrum

    def recording(op, deflate_ones=False, k=None):
        calls.append(k)
        depth[0] += 1
        try:
            return spectrum(op, deflate_ones, k)
        finally:
            depth[0] -= 1

    for name in ("eigh", "eigvalsh", "solve"):
        solve = getattr(np.linalg, name)

        def guarded(*args, _name=name, _solve=solve, **kwargs):
            if not depth[0]:
                outside.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)
    for module in (signedcut.eigen, signedcut.partition, signedcut.experiments, signedcut.cli):
        if getattr(module, "dense_spectrum", None) is spectrum:
            monkeypatch.setattr(module, "dense_spectrum", recording)
    return calls, outside


def record_solves(monkeypatch) -> list:
    """Record (k, config, block columns) of every lobpcg_smallest call from now on."""
    solves = []
    solve = signedcut.eigen.lobpcg_smallest

    def recording(op, k, cfg, *args, **kwargs):
        s, trace = solve(op, k, cfg, *args, **kwargs)
        solves.append((k, cfg, s.eigenvectors.shape[1]))
        return s, trace

    monkeypatch.setattr(signedcut.eigen, "lobpcg_smallest", recording)
    return solves


class TestGen:
    def test_path_with_override(self, tmp_path, capsys):
        out = str(tmp_path / "neg.mtx")
        code, _, report = run(capsys, "gen", "path", "--n", "75",
                              "--override", "37:-0.05", "--out", out)
        assert code == 0
        assert report["outputs"] == [out]
        g = load_graph(out)
        assert g == path_string(StringSpec(75, overrides=((36, -0.05),)))

    def test_cobra(self, tmp_path, capsys):
        out = str(tmp_path / "cobra.mtx")
        code, _, _ = run(capsys, "gen", "cobra", "--out", out)
        assert code == 0
        assert load_graph(out) == cobra()

    def test_two_vertex_path(self, tmp_path, capsys):
        out = str(tmp_path / "tiny.csv")
        code, _, _ = run(capsys, "gen", "path", "--n", "2", "--out", out)
        assert code == 0
        assert load_graph(out) == graph_from_edges(2, [(0, 1, 1.0)])

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code, _, report = run(capsys, "gen", "path", "--n", "75",
                              "--override", "99:0.0", "--out", str(tmp_path / "x.mtx"))
        assert code == 2
        assert report["error"]

    def test_dumbbell(self, tmp_path, capsys):
        out = str(tmp_path / "dumbbell.mtx")
        code, stdout, _ = run(capsys, "gen", "dumbbell", "--out", out)
        assert code == 0
        assert load_graph(out) == dumbbell()
        assert json.loads(stdout) == {"n": 13, "edges": 40}

    @pytest.mark.parametrize("override, error", [
        ("37", "--override expects EDGE:WEIGHT, got '37'"),
        ("x:-0.5", "--override expects EDGE:WEIGHT, got 'x:-0.5'"),
        ("37:heavy", "--override expects EDGE:WEIGHT, got '37:heavy'"),
        ("0:-0.5", "--override edge numbers are 1-based, got 0"),
    ])
    def test_malformed_override_exit_2(self, override, error, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        code, _, report = run(capsys, "gen", "path", "--override", override, "--out", str(out))
        assert code == 2
        assert report["error"] == error and report["exit_code"] == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["path", "--n", "5", "--override", "5:-1"], "--override edge 5 outside [1, 4] for --n 5"),
        (["noisy-string", "--n", "12", "--neg-edge", "12:-1"],
         "--neg-edge edge 12 outside [1, 11] for --n 12"),
        (["noisy-string", "--n", "5"], "--neg-edge edge 8 outside [1, 4] for --n 5"),
        (["path", "--n", "75", "--override", "37:nan"], "--override edge 37 has nonfinite weight nan"),
        (["noisy-string", "--neg-edge", "8:inf"], "--neg-edge edge 8 has nonfinite weight inf"),
    ], ids=["override", "neg-edge", "default-neg-edge", "override-nan", "neg-edge-inf"])
    def test_edge_past_the_string_is_named_1_based(self, argv, error, tmp_path, capsys):
        """The error quotes the flag and the edge as given, and the 1-based range
        of the string's edges for an edge past it; the flag's parser also
        refuses a nonfinite weight."""
        out = tmp_path / "x.mtx"
        code, stdout, report = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == error
        assert not out.exists() and report["outputs"] == []

    @pytest.mark.parametrize("argv, error", [
        (["cobra", "--override", "3:-1"], "signedcut gen cobra: unrecognized arguments: --override 3:-1"),
        (["path", "--n", "5", "--neg-edge", "2:-1"],
         "signedcut gen path: unrecognized arguments: --neg-edge 2:-1"),
        (["path", "--n", "5", "--noise-amp", "5"], "signedcut gen path: unrecognized arguments: --noise-amp 5"),
        (["noisy-string", "--override", "3:-1", "--override", "4:2"],
         "signedcut gen noisy-string: unrecognized arguments: --override 3:-1 --override 4:2"),
        (["dumbbell", "--seed", "0"], "signedcut gen dumbbell: unrecognized arguments: --seed 0"),
        (["path", "--n", "5", "--neg-edge", "2:-1", "--noise-amp", "5"],
         "signedcut gen path: unrecognized arguments: --neg-edge 2:-1 --noise-amp 5"),
    ], ids=["cobra-override", "path-neg-edge", "path-noise-amp", "noisy-override", "dumbbell-seed",
            "path-neg-edge-and-noise-amp"])
    def test_flag_of_another_kind_exit_2(self, argv, error, tmp_path, capsys):
        """A flag the kind does not declare is refused, even at another kind's default
        value, and the error names every such flag."""
        out = tmp_path / "x.mtx"
        code, stdout, report = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == error
        assert not out.exists() and report["outputs"] == []

    @pytest.mark.parametrize("flags, draw", [
        ([], ((7, -0.5), 1e-2, 0)),
        (["--neg-edge", "8:-0.5", "--noise-amp", "0.01", "--seed", "0"], ((7, -0.5), 1e-2, 0)),
        (["--neg-edge", "3:-2", "--noise-amp", "0.1", "--seed", "5"], ((2, -2.0), 0.1, 5)),
    ], ids=["defaults", "defaults-given", "given"])
    def test_noisy_string_flags(self, flags, draw, tmp_path, capsys):
        out = str(tmp_path / "noisy.mtx")
        code, _, _ = run(capsys, "gen", "noisy-string", *flags, "--out", out)
        assert code == 0
        assert load_graph(out) == noisy_string(12, *draw)

    @pytest.mark.parametrize("overrides, error", [
        (["2:-1", "2:-0.5"], "--override edge 2 listed twice"),
        (["3:1", "1:-1", "3:1"], "--override edge 3 listed twice"),
        (["2:0"], "--override edge 2 has zero weight"),
    ])
    def test_override_errors_name_the_edge_1_based(self, overrides, error, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        argv = [a for o in overrides for a in ("--override", o)]
        code, stdout, report = run(capsys, "gen", "path", "--n", "5", *argv, "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == error
        assert not out.exists()

    def test_last_edge_is_in_range(self, tmp_path, capsys):
        out = str(tmp_path / "x.mtx")
        code, _, _ = run(capsys, "gen", "path", "--n", "5", "--override", "4:-1", "--out", out)
        assert code == 0
        assert load_graph(out) == path_string(StringSpec(5, overrides=((3, -1.0),)))

    def test_nan_noise_amplitude_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        code, _, report = run(capsys, "gen", "noisy-string", "--noise-amp", "nan", "--out", str(out))
        assert code == 2 and report["error"] == "noise_amp must be >= 0, got nan"
        assert not out.exists()

    @pytest.mark.parametrize("kind, error", [
        ("path", "a string needs at least 2 vertices, got 0"),
        ("noisy-string", "noisy string needs at least 3 vertices, got 0"),
    ])
    def test_zero_n_exit_2(self, kind, error, tmp_path, capsys):
        """--n 0 is a string of no vertices, not a missing --n."""
        out = tmp_path / "x.mtx"
        code, stdout, report = run(capsys, "gen", kind, "--n", "0", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == error
        assert not out.exists() and report["outputs"] == []

    def test_infinite_noise_amplitude_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        code, _, report = run(capsys, "gen", "noisy-string", "--noise-amp", "inf", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2
        assert report["error"] == "noise_amp must be finite, got inf"
        assert not out.exists()

    def test_noisy_string_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        code, _, report = run(capsys, "gen", "noisy-string", "--seed", "-1", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2
        assert report["error"] == "seed must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("n", ["4096", "1048576"])
    def test_noisy_string_above_the_dense_threshold_exit_2(self, n, tmp_path, capsys):
        out = tmp_path / "x.mtx"
        code, _, report = run(capsys, "gen", "noisy-string", "--n", n, "--out", str(out))
        assert code == 2 and report["exit_code"] == 2
        assert report["error"] == f"noisy string is dense: n={n} exceeds dense threshold 2048"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cobra", "dumbbell"])
    def test_fixed_graph_refuses_n(self, kind, tmp_path, capsys):
        """cobra and the dumbbell have one size and declare no --n: it is an error, not ignored."""
        out = tmp_path / "x.mtx"
        code, stdout, report = run(capsys, "gen", kind, "--n", "99", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == f"signedcut gen {kind}: unrecognized arguments: --n 99"
        assert not out.exists() and report["outputs"] == []

    def test_io_failure_exit_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "cobra", "--out",
                         str(tmp_path / "missing-dir" / "x.mtx"))
        assert code == 3

    def test_identical_invocations_bit_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        run(capsys, "gen", "noisy-string", "--n", "12", "--neg-edge", "8:-0.5",
            "--noise-amp", "1e-2", "--seed", "7", "--out", a)
        run(capsys, "gen", "noisy-string", "--n", "12", "--neg-edge", "8:-0.5",
            "--noise-amp", "1e-2", "--seed", "7", "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSpectrum:
    def test_dense_csv_layout(self, tmp_path, capsys):
        gfile = str(tmp_path / "s.mtx")
        save_graph(path_string(StringSpec(10)), gfile)
        out = str(tmp_path / "modes.csv")
        code, _, _ = run(capsys, "spectrum", gfile, "--k", "3", "--out", out)
        assert code == 0
        text = open(out, newline="").read()
        assert "\r" not in text
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["vertex", "mode_0", "mode_1", "mode_2"]
        assert rows[1][0] == "eigenvalue"
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
        assert [r[0] for r in rows[2:]] == [str(v) for v in range(1, 11)]
        modes = np.array([[float(x) for x in r[1:]] for r in rows[2:]])
        # flat ends: the first interior difference is smaller than the peak
        assert abs(modes[0, 1] - modes[1, 1]) < 0.2 * np.abs(modes[:, 1]).max()

    def test_k_larger_than_n_exit_2(self, tmp_path, capsys):
        gfile = str(tmp_path / "s.mtx")
        save_graph(path_string(StringSpec(5)), gfile)
        code, _, _ = run(capsys, "spectrum", gfile, "--k", "6")
        assert code == 2

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "spectrum", "no-such-file.mtx")
        assert code == 3

    def test_lobpcg_block_smaller_than_k_exit_2(self, tmp_path, capsys):
        """The solver, not the parser, checks the block against the wanted pairs."""
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(75, overrides=((36, -0.05),))), gfile)
        out = tmp_path / "m.csv"
        code, _, report = run(capsys, "spectrum", gfile, "--solver", "lobpcg", "--k", "3",
                              "--block-size", "2", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2
        assert report["error"] == "block_size 2 smaller than k 3"
        assert not out.exists()

    def test_lobpcg_unconverged_warns_but_exits_0(self, tmp_path, capsys):
        """The warning quotes the solve's iteration count and the largest residual
        among the unconverged wanted pairs."""
        g = path_string(StringSpec(60))
        gfile = str(tmp_path / "s.mtx")
        save_graph(g, gfile)
        code, _, report = run(capsys, "spectrum", gfile, "--solver", "lobpcg",
                              "--k", "2", "--max-iter", "3", "--tol", "1e-12",
                              "--deflate-ones", "--out", str(tmp_path / "m.csv"))
        assert code == 0
        cfg = SolverConfig(tol=1e-12, max_iter=3, seed=0, precondition=True)
        s, trace = lobpcg_smallest(laplacian(g, "standard"), 2, cfg, True)
        unconverged = ~s.converged[:2]
        assert s.iterations == len(trace) == 3 and unconverged.any()
        assert report["warnings"] == [
            f"{int(unconverged.sum())} of 2 eigenpairs unconverged after 3 iterations "
            f"(largest residual {s.residual_norms[:2][unconverged].max():.3e})"
        ]

    @pytest.mark.parametrize("solver", ["dense", "lobpcg"])
    def test_deflate_ones_drops_the_constant_mode(self, tmp_path, capsys, solver):
        gfile = str(tmp_path / "p6.mtx")
        save_graph(path_string(StringSpec(6)), gfile)
        code, _, _ = run(capsys, "spectrum", gfile, "--k", "2", "--deflate-ones",
                         "--solver", solver, "--out", str(tmp_path / "m.csv"))
        assert code == 0
        # unit path: 2 - 2 cos(k pi / n) for k = 1, 2
        expected = [2 - 2 * np.cos(np.pi / 6), 2 - 2 * np.cos(2 * np.pi / 6)]
        np.testing.assert_allclose(mode_csv_eigenvalues(tmp_path / "m.csv"), expected, atol=1e-8)

    def test_deflate_ones_bounds_k_by_n_minus_1(self, tmp_path, capsys):
        gfile = str(tmp_path / "p6.mtx")
        save_graph(path_string(StringSpec(6)), gfile)
        code, _, report = run(capsys, "spectrum", gfile, "--k", "6", "--deflate-ones")
        assert code == 2
        assert report["error"] == "k=6 outside [1, n-1=5]"
        code, _, _ = run(capsys, "spectrum", gfile, "--k", "5", "--deflate-ones",
                         "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert len(mode_csv_eigenvalues(tmp_path / "m.csv")) == 5

    def test_dense_deflate_ones_rejects_a_signed_negative_edge(self, tmp_path, capsys):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(6, overrides=((2, -1.0),))), gfile)
        out = tmp_path / "m.csv"
        code, _, report = run(capsys, "spectrum", gfile, "--laplacian", "signed", "--k", "2",
                              "--deflate-ones", "--out", str(out))
        assert code == 2
        assert report["error"].startswith("ones is not an eigenvector of the operator")
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["dense", "lobpcg"])
    def test_deflate_ones_check_is_relative_at_small_weights(self, solver, tmp_path, capsys):
        """The -0.05 string moves ones by 1.6e-2 at unit weights; scaled by 2^-40
        it moves ones by as much relative to its row sums, and is refused as well."""
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        gfile = str(tmp_path / "small.mtx")
        save_graph(scale_weights(g, 2.0**-40), gfile)
        out = tmp_path / "m.csv"
        code, _, report = run(capsys, "spectrum", gfile, "--laplacian", "signed", "--k", "3",
                              "--deflate-ones", "--solver", solver, "--out", str(out))
        assert code == 2
        assert report["error"] == ("ones is not an eigenvector of the operator "
                                   "(|A u| = 1.485e-14); it cannot be deflated")
        assert not out.exists()

    def test_lobpcg_deflate_ones_rejects_a_signed_negative_edge(self, tmp_path, capsys,
                                                                monkeypatch):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(6, overrides=((2, -1.0),))), gfile)
        out = tmp_path / "m.csv"
        solves = count_dense_eigensolves(monkeypatch)
        code, _, report = run(capsys, "spectrum", gfile, "--laplacian", "signed", "--k", "2",
                              "--solver", "lobpcg", "--deflate-ones", "--out", str(out))
        assert code == 2
        assert report["error"].startswith("ones is not an eigenvector of the operator")
        assert not report["warnings"]
        assert not out.exists()
        # rejected before the first Rayleigh-Ritz step
        assert solves == []

    def test_signed_negative_edge_lead_mode_piecewise(self, tmp_path, capsys):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(75, overrides=((36, -0.05),))), gfile)
        out = str(tmp_path / "m.csv")
        code, _, _ = run(capsys, "spectrum", gfile, "--laplacian", "signed",
                         "--k", "5", "--out", out)
        assert code == 0
        rows = list(csv.reader(open(out, newline="")))
        lead = np.array([float(r[1]) for r in rows[2:]])
        # near piecewise-constant: jumps at the negative edge dominate
        diffs = np.abs(np.diff(lead))
        assert np.argmax(diffs) == 36


    @pytest.mark.parametrize("argv", [
        ["spectrum", "{g}", "--k", "5"],
        ["spectrum", "{g}", "--k", "5", "--deflate-ones"],
        ["spectrum", "{g}", "--k", "5", "--laplacian", "signed"],
        ["demo", "string-modes"], ["demo", "weak-link"], ["demo", "negative-edge"],
        ["demo", "noisy-string"],
    ], ids=["k5", "k5-deflated", "k5-signed", "string-modes", "weak-link", "negative-edge",
            "noisy-string"])
    def test_five_modes_need_no_eigh(self, argv, tmp_path, capsys, monkeypatch):
        """Up to five modes come from eigvalsh and shifted solves: a failing eigh is never reached."""
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(75, overrides=((36, -0.05),))), gfile)

        def no_eigh(*args, **kwargs):
            raise AssertionError("five modes must not take the full eigenbasis")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out = str(tmp_path / "out")
        code, _, report = run(capsys, *[gfile if a == "{g}" else a for a in argv], "--out", out)
        assert code == 0 and report["error"] is None and report["outputs"]

    @pytest.mark.parametrize("k, calls", [(5, ["eigvalsh"]), (6, ["eigh"])])
    def test_six_modes_take_one_eigh(self, k, calls, tmp_path, capsys, monkeypatch):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(30, overrides=((12, -0.05),))), gfile)
        solves = count_dense_eigensolves(monkeypatch)
        code, _, _ = run(capsys, "spectrum", gfile, "--k", str(k), "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert solves == [(name, (30, 30)) for name in calls]
        assert len(mode_csv_eigenvalues(tmp_path / "m.csv")) == k


class TestOneDenseEntry:
    """Every dense spectrum comes from ``eigen.dense_spectrum``, and every dense
    eigensolve and shifted solve runs inside it: the benchmark's span of it covers
    the whole dense route."""

    def test_fiedler(self, monkeypatch):
        calls, outside = record_dense_spectra(monkeypatch)
        g = path_string(StringSpec(30, overrides=((12, -0.05),)))
        for kind in ("standard", "signed"):
            fiedler(g, kind)
        assert calls == [1, 1] and outside == []

    def test_fiedler_regrows_on_the_near_constant_ring(self, monkeypatch):
        calls, outside = record_dense_spectra(monkeypatch)
        ring = graph_from_edges(30, [(i, i + 1, 1.0) for i in range(29)] + [(0, 29, -1e-8)])
        assert fiedler(ring, "signed").skipped_constant
        assert calls == [1, 2] and outside == []

    def test_baseline_gap(self, monkeypatch):
        calls, outside = record_dense_spectra(monkeypatch)
        baseline_gap(path_string(StringSpec(30, overrides=((12, -0.05),))))
        assert calls == [0] and outside == []

    @pytest.mark.parametrize("flags", [["--k", "2"], ["--k", "7"], ["--k", "2", "--deflate-ones"],
                                       ["--k", "7", "--laplacian", "signed"]])
    def test_spectrum(self, flags, tmp_path, capsys, monkeypatch):
        gfile = str(tmp_path / "p.mtx")
        save_graph(path_string(StringSpec(10)), gfile)
        calls, outside = record_dense_spectra(monkeypatch)
        code, _, _ = run(capsys, "spectrum", gfile, *flags, "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert calls == [int(flags[1])] and outside == []
        assert len(mode_csv_eigenvalues(tmp_path / "m.csv")) == int(flags[1])

    @pytest.mark.parametrize("name, spectra", [("string-modes", 1), ("weak-link", 1), ("negative-edge", 2)])
    def test_mode_demos(self, name, spectra, tmp_path, capsys, monkeypatch):
        calls, outside = record_dense_spectra(monkeypatch)
        code, _, _ = run(capsys, "demo", name, "--out", str(tmp_path / name))
        assert code == 0
        assert calls == [5] * spectra and outside == []


class TestPartitionCmd:
    def test_dumbbell_standard(self, tmp_path, capsys):
        gfile = str(tmp_path / "d.mtx")
        save_graph(dumbbell(), gfile)
        code, out, _ = run(capsys, "partition", gfile)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 13
        assert doc["side"] == [0] * 6 + [1] * 7
        assert set(doc) >= {"fiedler", "eigenvalue", "kind", "gap", "clustered_warning"}

    def test_emit_confidence(self, tmp_path, capsys):
        gfile = str(tmp_path / "d.mtx")
        save_graph(dumbbell(), gfile)
        code, out, _ = run(capsys, "partition", gfile, "--emit-confidence")
        doc = json.loads(out)
        assert code == 0
        assert sum(doc["confidence"]) == pytest.approx(1.0, abs=1e-9)

    def test_cobra_standard_groups_1_2_against_3_4(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        code, out, _ = run(capsys, "partition", gfile)
        assert code == 0
        side = json.loads(out)["side"]
        assert side[0] == side[1] != side[2] == side[3]

    def test_multicomponent_exit_5(self, tmp_path, capsys):
        gfile = str(tmp_path / "two.csv")
        with open(gfile, "w") as fh:
            fh.write("i,j,w\n0,1,1.0\n2,3,1.0\n")
        code, _, _ = run(capsys, "partition", gfile)
        assert code == 5

    def test_degenerate_signed_exit_4(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        code, _, _ = run(capsys, "partition", gfile, "--laplacian", "signed")
        assert code == 4

    def test_one_vertex_exit_5(self, tmp_path, capsys):
        gfile = tmp_path / "one.mtx"
        gfile.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 0\n")
        code, _, report = run(capsys, "partition", str(gfile))
        assert code == 5
        assert report["error"] == "need at least two vertices to bisect"

    def test_singular_dense_shift_exit_4(self, tmp_path, capsys, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        monkeypatch.setattr(signedcut.eigen.np.linalg, "solve", singular)
        code, _, report = run(capsys, "partition", gfile)
        assert code == 4
        assert report["error"].startswith("shifted solve at eigenvalue ")
        assert report["error"].endswith(" stayed singular")

    def test_lapack_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def failed(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        monkeypatch.setattr(np.linalg, "eigvalsh", failed)
        code, _, report = run(capsys, "partition", gfile)
        assert code == 4
        assert report["error"] == "Eigenvalues did not converge"

    def test_lost_basis_exit_4_on_the_iterative_route(self, tmp_path, capsys, monkeypatch):
        def lost(*args, **kwargs):
            raise BasisDegenerateError("random initial block lost rank")

        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        monkeypatch.setattr(signedcut.eigen, "lobpcg_smallest", lost)
        code, _, report = run(capsys, "partition", gfile, "--solver", "lobpcg")
        assert code == 4
        assert report["error"] == "random initial block lost rank"

    def test_degenerate_signed_exit_4_on_the_iterative_route(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        code, _, _ = run(capsys, "partition", gfile, "--laplacian", "signed", "--solver", "lobpcg")
        assert code == 4

    @pytest.mark.parametrize("override", [[], ["--override", "1:-1"]], ids=["positive", "negative"])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_two_vertices_on_the_iterative_route(self, tmp_path, capsys, kind, override):
        """A deflated operator has room for one column: the block is one, and there is no gap partner.

        The signed operator of the negative edge is not deflated: a block of
        two fits, and both routes report the gap 2.0.
        """
        gfile = str(tmp_path / "p2.mtx")
        assert run(capsys, "gen", "path", "--n", "2", *override, "--out", gfile)[0] == 0
        docs = {}
        for solver in ("dense", "lobpcg"):
            out = tmp_path / f"{solver}.json"
            code, _, report = run(capsys, "partition", gfile, "--laplacian", kind,
                                  "--solver", solver, "--out", str(out))
            assert code == 0
            docs[solver] = json.loads(out.read_text())
        dense, lobpcg = docs["dense"], docs["lobpcg"]
        assert lobpcg["eigenvalue"] == pytest.approx(dense["eigenvalue"], abs=1e-12)
        # the one split of two vertices; which is A is decided by rounding,
        # since the two components of the Fiedler vector tie in magnitude
        assert sorted(lobpcg["side"]) == sorted(dense["side"]) == [0, 1]
        if kind == "signed" and override:
            assert dense["gap"] == pytest.approx(2.0, abs=1e-12)
            assert lobpcg["gap"] == pytest.approx(2.0, abs=1e-12) and lobpcg["gap_converged"] is True
            assert not any("gap partner is unconverged" in w for w in report["warnings"])
        else:
            assert lobpcg["gap"] is None and lobpcg["gap_converged"] is False
            assert any("gap partner is unconverged" in w for w in report["warnings"])


class TestSolverWiring:
    """The CLI's iterative route is preconditioned; the paper's study is not."""

    def test_partition_and_spectrum_precondition(self, tmp_path, capsys, monkeypatch):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(30, overrides=((12, -0.05),))), gfile)
        solves = record_solves(monkeypatch)
        for kind in ("standard", "signed"):
            code, _, _ = run(capsys, "partition", gfile, "--laplacian", kind, "--solver", "lobpcg",
                             "--max-iter", "1000", "--out", str(tmp_path / f"p-{kind}.json"))
            assert code == 0
        code, _, _ = run(capsys, "spectrum", gfile, "--solver", "lobpcg", "--k", "3",
                         "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert len(solves) == 3
        assert all(cfg.precondition for _, cfg, _ in solves)
        # partition wants the Fiedler pair alone, in a block of two for its gap
        assert [k for k, _, _ in solves] == [1, 1, 3]
        assert [block for _, _, block in solves] == [2, 2, 3]

    def test_truncated_iteration_study_is_unpreconditioned(self, tmp_path, capsys, monkeypatch):
        def no_preconditioner(*args, **kwargs):
            raise AssertionError("the truncated-iteration study built a preconditioner")

        for name in ("multilevel_preconditioner", "jacobi_preconditioner"):
            monkeypatch.setattr(signedcut.eigen, name, no_preconditioner)
        code, _, _ = run(capsys, "demo", "lobpcg-30", "--out", str(tmp_path / "trunc"))
        assert code == 0


def assert_routes_agree(tmp_path, capsys, gfile, kind, scale=1.0):
    """partition on both routes at the CLI defaults exits 0 with the same Fiedler pair and split."""
    docs = {}
    for solver in ("dense", "lobpcg"):
        out = tmp_path / f"{solver}.json"
        code, _, report = run(capsys, "partition", gfile, "--laplacian", kind,
                              "--solver", solver, "--out", str(out))
        assert code == 0, report["error"]
        docs[solver] = json.loads(out.read_text())
    dense, lobpcg = docs["dense"], docs["lobpcg"]
    assert lobpcg["eigenvalue"] / scale == pytest.approx(dense["eigenvalue"] / scale, abs=1e-10)
    u, v = np.asarray(dense["fiedler"]), np.asarray(lobpcg["fiedler"])
    assert abs(float(u @ v)) >= 1.0 - 1e-10
    # the same split; which side is A may differ, since the strings' vectors'
    # largest magnitudes tie between mirror-image vertices
    sure = np.abs(u) > 1e-6
    same = (np.asarray(dense["side"]) == np.asarray(lobpcg["side"]))[sure]
    assert same.all() or not same.any()


class TestIterativeStringsAtDefaults:
    """partition --solver lobpcg at the CLI defaults on the 75-mass strings.

    Under Jacobi alone the unit path's standard solve and the -0.05 string's
    standard solve stopped unconverged at 200 iterations (exit 4); the
    multilevel preconditioner now serves both.
    """

    @pytest.mark.parametrize("override", [[], ["--override", "37:-0.05"]], ids=["unit", "negative-edge"])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_converges_and_matches_dense(self, tmp_path, capsys, kind, override):
        gfile = str(tmp_path / "path.mtx")
        assert run(capsys, "gen", "path", "--n", "75", *override, "--out", gfile)[0] == 0
        assert_routes_agree(tmp_path, capsys, gfile, kind)


class TestIterativeStringsAtLargeScales:
    """partition --solver lobpcg at the CLI defaults on the 75-mass -0.05 string, weights scaled by 2**e.

    A power of two scales the eigenpairs exactly, so both routes agree at
    every scale.  The signed kind's Fiedler value is tiny against
    ``||A||_inf``: from 2**25 on, ``tol * |theta|`` lies below the
    residual's rounding level, which the stopping test accepts.  From about
    2**512 on, the squares of the Lanczos estimate's residual norms would
    overflow without their power-of-two scaling.  At 2**1018 and 2**1020
    the sum of the radii overflows, though each radius is finite, so the
    multilevel preconditioner's shift scale is a mean taken in [0, 1].
    """

    @pytest.mark.parametrize("e", [25, 40, 200, 600, 1000, 1018, 1020])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_converges_and_matches_dense(self, tmp_path, capsys, kind, e):
        c = 2.0 ** e
        ii, jj, ww = path_string(StringSpec(75, overrides=((36, -0.05),))).edge_arrays()
        gfile = str(tmp_path / "scaled.mtx")
        save_graph(graph_from_arrays(75, ii, jj, ww * c), gfile)
        assert_routes_agree(tmp_path, capsys, gfile, kind, scale=c)


class TestIterativeLongStringsAtDefaults:
    """partition --solver lobpcg at the CLI defaults on the 3000-mass strings,
    and on the -0.05 string at a block of five and tol 1e-5 too.

    While the solve also converged the Fiedler pair's gap partner, the
    standard kind stopped unconverged at 200 iterations (exit 4); the
    Fiedler pair alone converges.  The reference is scipy's eigsh in
    shift-invert mode just below the Gershgorin bound: in both kinds the
    Fiedler pair is the smallest one, the only negative eigenvalue of the
    standard kind and the switched ones vector of the signed kind.
    """

    @pytest.mark.parametrize("weight, flags, accuracy", [
        pytest.param("-0.05", [], 1e-10, id="-0.05"),
        pytest.param("-0.5", [], 1e-10, id="-0.5"),
        pytest.param("-1", [], 1e-10, id="-1"),
        pytest.param("-0.05", ["--block-size", "5", "--tol", "1e-5"], 1e-5, id="-0.05-block-5-tol-1e-5"),
    ])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    def test_exits_0_and_matches_eigsh(self, tmp_path, capsys, kind, weight, flags, accuracy):
        sparse = pytest.importorskip("scipy.sparse")
        eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
        gfile, out = str(tmp_path / "s3k.mtx"), tmp_path / "p.json"
        assert run(capsys, "gen", "path", "--n", "3000", "--override", f"1500:{weight}",
                   "--out", gfile)[0] == 0
        code, _, report = run(capsys, "partition", gfile, "--laplacian", kind,
                              "--solver", "lobpcg", *flags, "--out", str(out))
        assert code == 0, report["error"]
        doc = json.loads(out.read_text())
        # an unconverged partner makes the gap an upper estimate, and stderr says so
        warned = any("upper estimate" in w for w in report["warnings"])
        assert warned is not doc["gap_converged"]
        op = laplacian(load_graph(gfile), kind)
        ii, jj, ww = op.graph.edge_arrays()
        W = sparse.coo_matrix((ww, (ii, jj)), shape=(op.n, op.n))
        L = (sparse.diags(op.diagonal) - W - W.T).tocsc()
        lam, U = eigsh(L, k=1, sigma=op.gershgorin_lower - 1e-3, which="LM")
        assert doc["eigenvalue"] == pytest.approx(lam[0], abs=accuracy)
        assert abs(float(np.asarray(doc["fiedler"]) @ U[:, 0])) >= 1.0 - accuracy


@pytest.fixture(scope="module")
def random_100k(tmp_path_factory) -> str:
    """A 100k-vertex random signed graph file: a spanning path plus 6n random
    pairs, weights in U(-1, 1)."""
    n = 100000
    rng = np.random.default_rng(0)
    order = rng.permutation(n)
    a, b = rng.integers(0, n, size=(2, 6 * n))
    lo = np.concatenate([np.minimum(order[:-1], order[1:]), np.minimum(a, b)[a != b]])
    hi = np.concatenate([np.maximum(order[:-1], order[1:]), np.maximum(a, b)[a != b]])
    _, first = np.unique(lo * n + hi, return_index=True)
    w = rng.uniform(-1.0, 1.0, size=len(first))
    w[w == 0.0] = 0.5
    gfile = str(tmp_path_factory.mktemp("r100k") / "r100k.mtx")
    save_graph(graph_from_arrays(n, lo[first], hi[first], w), gfile)
    return gfile


@pytest.mark.parametrize("kind", ["standard", "signed"])
def test_random_100k_partitions_on_the_iterative_route(random_100k, kind, tmp_path, capsys):
    """A graph far above the dense threshold, at the bench's block of five and tol 1e-5: exit 0."""
    out = tmp_path / "p.json"
    code, _, report = run(capsys, "partition", random_100k, "--laplacian", kind, "--solver", "lobpcg",
                          "--block-size", "5", "--tol", "1e-5", "--out", str(out))
    assert code == 0, report["error"]
    assert json.loads(out.read_text())["n"] == 100000


class TestMetricsCmd:
    def test_cobra_split(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump({"n": 6, "side": [0, 0, 1, 1, 1, 1]}, fh)
        code, out, _ = run(capsys, "metrics", gfile, "--partition", pfile)
        assert code == 0
        doc = json.loads(out)
        assert doc["signed_cut"] == 2.0 and doc["cut"] == 0.0
        assert (doc["size_a"], doc["size_b"]) == (2, 4)
        assert type(doc["size_a"]) is int and type(doc["size_b"]) is int

    def test_dumbbell_split(self, tmp_path, capsys):
        gfile = str(tmp_path / "d.mtx")
        save_graph(dumbbell(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump({"n": 13, "side": [0] * 6 + [1] * 7}, fh)
        code, out, _ = run(capsys, "metrics", gfile, "--partition", pfile)
        doc = json.loads(out)
        assert code == 0
        assert doc["cut"] == 0.0 and doc["signed_cut"] == 4.0

    def test_partition_file_of_the_partition_command(self, tmp_path, capsys):
        """metrics reads the file partition writes, and scores its split."""
        g = path_string(StringSpec(75, overrides=((36, -0.05),)))
        gfile, pfile = str(tmp_path / "neg.mtx"), tmp_path / "part.json"
        save_graph(g, gfile)
        code, _, _ = run(capsys, "partition", gfile, "--laplacian", "signed", "--solver", "lobpcg",
                         "--out", str(pfile))
        assert code == 0
        side = np.asarray(json.loads(pfile.read_text())["side"], dtype=np.int8)
        code, out, _ = run(capsys, "metrics", gfile, "--partition", str(pfile))
        assert code == 0
        doc = json.loads(out)
        assert (doc["size_a"], doc["size_b"]) == (int((side == 0).sum()), int((side == 1).sum()))
        assert doc["signed_cut"] == cut_metrics(g, side).signed_cut

    def test_empty_side_exit_2(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump({"n": 6, "side": [0] * 6}, fh)
        code, _, _ = run(capsys, "metrics", gfile, "--partition", pfile)
        assert code == 2

    def test_size_mismatch_exit_2(self, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump({"n": 5, "side": [0, 0, 1, 1, 1]}, fh)
        code, _, _ = run(capsys, "metrics", gfile, "--partition", pfile)
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"n": 6, "side": [0, 0, 1, 1, 1, 2]},
        {"n": 6, "side": [0, 0, 1, 1, 1, 256]},
        {"n": 6, "side": [0, 0, 1, 1, 1, 0.5]},
        {"n": 6, "side": [0, 0, 1, 1, 1, True]},
        {"n": 6, "side": [0, 0, 1, 1, 1, 1.0]},
        {"n": 6.0, "side": [0, 0, 1, 1, 1, 1]},
        [0, 0, 1, 1, 1, 1],
    ], ids=["two", "256", "half", "true", "float-one", "float-n", "list"])
    def test_malformed_partition_exit_2(self, doc, tmp_path, capsys):
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump(doc, fh)
        code, _, report = run(capsys, "metrics", gfile, "--partition", pfile)
        assert code == 2 and report["exit_code"] == 2 and report["error"]

    @pytest.mark.parametrize("label", [2, 0.5])
    def test_other_side_labels_keep_their_message(self, label, tmp_path, capsys):
        """The file's labels are checked before ``cut_metrics`` sees them, with the file's message."""
        gfile = str(tmp_path / "c.mtx")
        save_graph(cobra(), gfile)
        pfile = str(tmp_path / "p.json")
        with open(pfile, "w") as fh:
            json.dump({"n": 6, "side": [0, 0, 1, 1, 1, label]}, fh)
        code, stdout, report = run(capsys, "metrics", gfile, "--partition", pfile)
        assert code == 2 and not stdout
        assert report["error"] == "partition side values must be the integers 0 and 1"


def json_text(doc) -> str:
    return "".join(signedcut.cli._json_chunks(doc))


class TestJsonWriter:
    """The JSON writer is json.dumps(doc, indent=2) byte for byte."""

    @pytest.mark.parametrize("doc", [
        {"n": 3, "side": [0, 1, 1], "fiedler": [0.5, -0.0, -1e-300], "gap": None, "ok": True},
        {"empty": [], "empty_dict": {}, "nested": [[1, 2], [], [None, False]],
         "deep": {"rows": [{"a": [0.1, 2.0]}, {"b": {"c": ["x, y", "\u00e9\n"]}}]},
         "special": [float("inf"), float("nan")], "ints": (1, 2)},
        {1: [1, 2], "k": {None: True, 2.5: [3]}},
        [], {}, [[]], "text", 0.1,
    ], ids=["partition-like", "nested", "non-string-keys", "empty-list", "empty-dict",
            "list-of-empty", "string", "number"])
    def test_synthetic_documents(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("kind", ["ints", "floats", "bools", "special", "mixed", "nested"])
    def test_lists_longer_than_one_chunk(self, kind):
        size = signedcut.cli.CHUNK_LINES + 3
        rng = np.random.default_rng(0)
        items = {
            "ints": rng.integers(-5, 5, size).tolist(),
            "floats": rng.standard_normal(size).tolist(),
            "bools": (rng.random(size) < 0.5).tolist(),
            "special": [float("nan"), float("inf"), -float("inf"), -0.0, None] * (size // 5 + 1),
            # scalars, with one container in the second chunk only
            "mixed": [0.5, 1, True, None, "x"] * (size // 5) + [[1.5, [2, {}]]] + [7],
            "nested": [[k, {"k": [0.5]}] for k in range(size)] + [[], {}],
        }[kind]
        for doc in (items, {"a": {"b": items[:5], "c": items}}, [[items]]):
            assert json_text(doc) == json.dumps(doc, indent=2)

    def test_partition_and_compare_files(self, tmp_path, capsys):
        paths = []
        for name, g in (("cobra", cobra()), ("neg", path_string(StringSpec(75, overrides=((36, -0.05),))))):
            gfile = str(tmp_path / f"{name}.mtx")
            save_graph(g, gfile)
            for argv in (["partition", gfile, "--emit-confidence"], ["compare", gfile]):
                out = str(tmp_path / f"{name}-{argv[0]}.json")
                assert run(capsys, *argv, "--out", out)[0] == 0
                paths.append(out)
        texts = [open(p).read() for p in paths]
        # cobra's signed block has no bisection: "side": null
        assert any('"side": null' in text for text in texts)
        for text in texts:
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_modes_csv_longer_than_one_chunk():
    rng = np.random.default_rng(0)
    rows = signedcut.cli.CHUNK_LINES + 2
    evals, vecs = rng.standard_normal(3), rng.standard_normal((rows, 3))
    vecs[0, 0], vecs[-1, 2] = -0.0, 1e-300
    # the one-string writer this replaces, as the reference
    lines = ["vertex,mode_0,mode_1,mode_2", "eigenvalue," + ",".join(repr(float(v)) for v in evals)]
    lines += [f"{r + 1}," + ",".join(repr(float(vecs[r, c])) for c in range(3)) for r in range(rows)]
    assert "".join(signedcut.cli._modes_csv(evals, vecs)) == "\n".join(lines) + "\n"


class TestCompare:
    def test_all_positive_path_kinds_agree(self, tmp_path, capsys):
        gfile = str(tmp_path / "p.mtx")
        save_graph(path_string(StringSpec(20)), gfile)
        code, out, _ = run(capsys, "compare", gfile)
        assert code == 0
        doc = json.loads(out)
        assert doc["standard"]["side"] == doc["signed"]["side"]
        assert doc["ratios"]["gap_standard_over_baseline"] == pytest.approx(1.0)

    def test_negative_edge_string_ratio_structure(self, tmp_path, capsys):
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(100, overrides=((36, -0.05),))), gfile)
        code, out, _ = run(capsys, "compare", gfile)
        assert code == 0
        doc = json.loads(out)
        r = doc["ratios"]
        assert r["gap_standard_over_baseline"] > 1.0
        assert r["gap_signed_over_baseline"] < 1.0
        assert r["condition_signed_over_standard"] > 1.0

    def test_one_dense_solve_per_spectrum(self, tmp_path, capsys, monkeypatch):
        """Standard, signed and baseline spectra: three eigh or eigvalsh calls in all."""
        gfile = str(tmp_path / "neg.mtx")
        save_graph(path_string(StringSpec(30, overrides=((12, -0.05),))), gfile)
        calls = count_dense_eigensolves(monkeypatch)
        code, _, _ = run(capsys, "compare", gfile)
        assert code == 0
        assert len(calls) == 3

    def test_non_finite_values_are_null(self, tmp_path, capsys):
        """One edge: the baseline has no second gap, so gaps and ratios are infinite."""
        gfile = str(tmp_path / "edge.mtx")
        save_graph(graph_from_edges(2, [(0, 1, 1.0)]), gfile)
        code, out, _ = run(capsys, "compare", gfile)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["baseline"]["gap"] is None
        assert doc["ratios"]["gap_standard_over_baseline"] is None


ZERO_GAP_GRAPHS = {
    "k4": graph_from_edges(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]),
    "negative-triangle": graph_from_edges(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)]),
    **{f"negative-k{n}": graph_from_edges(n, [(i, j, -1.0) for i in range(n) for j in range(i + 1, n)])
       for n in (4, 5, 6)},
}


class TestZeroGap:
    """K4 and the all-negative K3-K6 repeat their Fiedler eigenvalue (each Laplacian's
    whole ones-deflated spectrum is one value), so the gap is rounding at the spectrum's
    scale and the vector any member of its eigenspace: flagged, with no condition number.
    The iterative start block of two meets that eigenspace, so its first column converges
    at the first test; the solve goes on until the tied partner has converged too."""

    @pytest.mark.parametrize("solver", ["dense", "lobpcg"])
    @pytest.mark.parametrize("kind", ["standard", "signed"])
    @pytest.mark.parametrize("name", list(ZERO_GAP_GRAPHS))
    def test_partition_flags_a_zero_gap(self, tmp_path, capsys, name, kind, solver):
        gfile = str(tmp_path / f"{name}.mtx")
        save_graph(ZERO_GAP_GRAPHS[name], gfile)
        code, out, report = run(capsys, "partition", gfile, "--laplacian", kind, "--solver", solver)
        assert code == 0
        doc = json.loads(out)
        assert doc["clustered_warning"] is True
        assert doc["gap"] <= 1e-14
        assert doc.get("gap_converged", True) is True
        assert [w.split(":")[0] for w in report["warnings"]] == ["clustered eigenvalues"]

    @pytest.mark.parametrize("name", list(ZERO_GAP_GRAPHS))
    def test_compare_has_no_condition_number(self, tmp_path, capsys, name):
        gfile = str(tmp_path / f"{name}.mtx")
        save_graph(ZERO_GAP_GRAPHS[name], gfile)
        code, out, report = run(capsys, "compare", gfile)
        assert code == 0
        doc = strict_json(out)
        assert [doc[b]["condition_number"] for b in ("standard", "signed", "baseline")] == [None] * 3
        assert doc["standard"]["clustered_warning"] is doc["signed"]["clustered_warning"] is True
        assert doc["ratios"]["condition_signed_over_standard"] is None
        assert len(report["warnings"]) == 2


class TestDemo:
    @pytest.mark.parametrize("name", ["string-modes", "weak-link", "negative-edge",
                                      "noisy-string", "cobra", "dumbbell"])
    def test_demos_write_outputs(self, name, tmp_path, capsys):
        out = str(tmp_path / name)
        code, _, report = run(capsys, "demo", name, "--out", out)
        assert code == 0
        assert report["outputs"]
        for path in report["outputs"]:
            assert open(path).read()

    @pytest.mark.parametrize("name", ["weak-link", "negative-edge", "gap-study", "lobpcg-30"])
    def test_special_edge_demos_name_n_when_it_is_too_short(self, name, tmp_path, capsys):
        """The special edge is 37 (1-based): a 30-mass string has none, and the error says so in --n terms."""
        out = tmp_path / name
        code, stdout, report = run(capsys, "demo", name, "--n", "30", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == (f"demo {name} needs --n >= 38: its special edge 37 (1-based) "
                                   "joins vertices 37 and 38; got --n 30")
        assert not out.exists() and report["outputs"] == []

    def test_noisy_string_names_n_when_it_is_too_short(self, tmp_path, capsys):
        """The noisy string's negative edge is 8 (1-based): an 8-mass string has none."""
        out = tmp_path / "noisy"
        code, stdout, report = run(capsys, "demo", "noisy-string", "--n", "8", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == ("demo noisy-string needs --n >= 9: its special edge 8 (1-based) "
                                   "joins vertices 8 and 9; got --n 8")
        assert not out.exists() and report["outputs"] == []

    @pytest.mark.parametrize("name, error", [
        ("string-modes", "a string needs at least 2 vertices, got 0"),
        ("gap-study", "demo gap-study needs --n >= 38: its special edge 37 (1-based) "
                      "joins vertices 37 and 38; got --n 0"),
    ])
    def test_zero_n_exit_2(self, name, error, tmp_path, capsys):
        """--n 0 is a string of no vertices, not a missing --n."""
        out = tmp_path / name
        code, stdout, report = run(capsys, "demo", name, "--n", "0", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == error
        assert not out.exists() and report["outputs"] == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_string_modes_shorter_than_its_k(self, n, tmp_path, capsys):
        """A string of fewer masses than the demo's 5 modes writes every mode it has."""
        code, stdout, report = run(capsys, "demo", "string-modes", "--n", str(n), "--out", str(tmp_path))
        assert code == 0 and report["exit_code"] == 0
        assert len(json.loads(stdout)["eigenvalues"]) == n
        with open(tmp_path / "string-modes.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex"] + [f"mode_{c}" for c in range(n)] and len(rows) == n + 2

    @pytest.mark.parametrize("name, n", [("cobra", "5"), ("dumbbell", "-3")])
    def test_fixed_graph_demos_refuse_n(self, name, n, tmp_path, capsys, monkeypatch):
        """cobra and the dumbbell have one size and declare no --n: it is an error,
        raised before the default directory is made."""
        monkeypatch.chdir(tmp_path)
        code, stdout, report = run(capsys, "demo", name, "--n", n)
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == f"signedcut demo {name}: unrecognized arguments: --n {n}"
        assert list(tmp_path.iterdir()) == [] and report["outputs"] == []

    def test_noisy_string_above_the_dense_threshold_exit_2(self, tmp_path, capsys):
        out = tmp_path / "noisy"
        code, stdout, report = run(capsys, "demo", "noisy-string", "--n", "4096", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == "noisy string is dense: n=4096 exceeds dense threshold 2048"
        assert not out.exists() and report["outputs"] == []

    @pytest.mark.parametrize("name", ["string-modes", "weak-link", "negative-edge"])
    def test_mode_demos_above_the_dense_threshold_make_no_directory(self, name, tmp_path, capsys):
        """The dense solve is refused before the output directory is made."""
        out = tmp_path / name
        code, stdout, report = run(capsys, "demo", name, "--n", "3000", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == "n=3000 exceeds dense threshold 2048"
        assert not out.exists() and report["outputs"] == []

    def test_noisy_string_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "noisy"
        code, stdout, report = run(capsys, "demo", "noisy-string", "--seed", "-1", "--out", str(out))
        assert code == 2 and report["exit_code"] == 2 and not stdout
        assert report["error"] == "seed must be >= 0, got -1"
        assert not out.exists() and report["outputs"] == []

    def test_cobra_one_dense_solve_per_spectrum(self, tmp_path, capsys, monkeypatch):
        """Standard, nullified and signed spectra: three eigh or eigvalsh calls in all."""
        calls = count_dense_eigensolves(monkeypatch)
        code, _, _ = run(capsys, "demo", "cobra", "--out", str(tmp_path / "cobra"))
        assert code == 0
        assert len(calls) == 3

    def test_cobra_signed_flag_is_not_the_sign_of_rounding(self, tmp_path, capsys, monkeypatch):
        """eigh leaves rounding at vertex 1 of cobra's signed Fiedler vector
        (+2.75e-18 with one LAPACK); a negative one must not make it bisect."""
        spectrum = signedcut.experiments.dense_spectrum

        def negative_rounding(op, *args, **kwargs):
            s = spectrum(op, *args, **kwargs)
            v = s.eigenvectors.copy()
            lead = v[:, 0]
            lead *= np.sign(lead[np.argmax(np.abs(lead))])
            assert abs(lead[0]) <= 1e-15 and (lead[1:] > 0).all()
            lead[0] = -2.75e-18
            return Spectrum(s.eigenvalues, v)

        monkeypatch.setattr(signedcut.experiments, "dense_spectrum", negative_rounding)
        out = tmp_path / "cobra"
        code, _, report = run(capsys, "demo", "cobra", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "cobra.json").read_text())
        assert doc["signed_first_bisects"] is False
        assert report["warnings"] == ["signed: first eigenvector has one sign, bisection degenerate"]

    def test_demos_accept_a_seed_they_do_not_read(self, tmp_path, capsys):
        """Every demo takes --seed; cobra draws nothing, so its files are those of the default seed."""
        files = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            code, stdout, report = run(capsys, "demo", "cobra", "--seed", seed, "--out", str(out))
            assert code == 0 and report["error"] is None
            files.append((stdout, [(out / p).read_bytes() for p in ("cobra.mtx", "cobra.json")]))
        assert files[0] == files[1]

    def test_gap_study_demo(self, tmp_path, capsys):
        out = str(tmp_path / "gap")
        code, _, report = run(capsys, "demo", "gap-study", "--out", out)
        assert code == 0
        doc = json.load(open(report["outputs"][0]))
        sweep = {row["weight"]: row for row in doc["sweep"]}
        assert 3.0 <= sweep[-0.05]["gap_standard_over_baseline"] <= 5.0
        assert sweep[-0.05]["gap_signed_over_baseline"] < 0.5

    def test_lobpcg_30_demo(self, tmp_path, capsys):
        out = str(tmp_path / "trunc")
        code, _, report = run(capsys, "demo", "lobpcg-30", "--out", out)
        assert code == 0
        doc = json.load(open(report["outputs"][0]))
        counts = doc["sign_change_counts"]
        assert counts["standard_negative"] >= 18
        assert counts["baseline_zero"] < counts["standard_negative"]
        assert counts["signed_negative"] < counts["standard_negative"]


@pytest.mark.parametrize("flags", [
    ("compare", "--seed", "1"),
    ("compare", "--tol", "1e-6"),
    ("partition", "--k", "3"),
    ("partition", "--solver", "nope"),
])
def test_usage_error_exit_2_with_one_report(flags, tmp_path, capsys):
    gfile = str(tmp_path / "p.mtx")
    save_graph(path_string(StringSpec(20)), gfile)
    code = main([flags[0], gfile, *flags[1:]])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 2
    assert lines[0].startswith("usage: signedcut")
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(reports) == 1
    assert reports[0]["exit_code"] == 2 and reports[0]["error"]
    assert captured.out == ""


@pytest.mark.parametrize("argv, usage", [
    (["gen", "cobra", "--override", "3:-1", "--out", "c.mtx"], "usage: signedcut gen cobra [-h]"),
    (["demo", "dumbbell", "--n", "4"], "usage: signedcut demo dumbbell [-h]"),
], ids=["gen", "demo"])
def test_refused_flag_shows_the_subcommands_usage(argv, usage, tmp_path, capsys, monkeypatch):
    """The subcommand that does not declare a flag refuses it, after its own usage line."""
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and lines[0].startswith(usage)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["gen", "noisy-string", "--noise-amp", "nan", "--out", "x.mtx"], "noise_amp"),
    (["partition", "c.mtx", "--tol", "inf"], "tol"),
], ids=["nan", "inf"])
def test_nonfinite_flag_is_null_in_the_report(argv, flag, tmp_path, capsys, monkeypatch):
    """RFC 8259 has no NaN or Infinity, so the report's config writes them as null;
    ``run`` reads the report with a parser that refuses both."""
    monkeypatch.chdir(tmp_path)
    save_graph(cobra(), "c.mtx")
    code, stdout, report = run(capsys, *argv)
    assert code == 2 and report["exit_code"] == 2 and not stdout
    assert flag in report["config"] and report["config"][flag] is None
    assert not (tmp_path / "x.mtx").exists()


@pytest.mark.parametrize("solver", ["dense", "lobpcg"])
@pytest.mark.parametrize("command, flags, error", [
    ("partition", ("--tol", "-1"), "tol must be positive, got -1.0"),
    ("partition", ("--block-size", "0"), "block_size must be >= 1, got 0"),
    ("spectrum", ("--max-iter", "0"), "max_iter must be >= 1, got 0"),
    # an infinite tol would pass every residual test at once, the random start included
    ("partition", ("--tol", "inf"), "tol must be finite, got inf"),
    ("spectrum", ("--tol", "inf"), "tol must be finite, got inf"),
    # the dense route never draws, so it would ignore the seed; numpy's own refusal names no flag
    ("partition", ("--seed", "-1"), "seed must be >= 0, got -1"),
    ("spectrum", ("--seed", "-1"), "seed must be >= 0, got -1"),
])
def test_invalid_solver_knobs_exit_2_on_both_routes(command, flags, error, solver, tmp_path, capsys):
    gfile = str(tmp_path / "p.mtx")
    save_graph(path_string(StringSpec(20)), gfile)
    out = tmp_path / "out"
    code = main([command, gfile, "--solver", solver, *flags, "--out", str(out)])
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]
    assert code == 2 and len(reports) == 1
    assert reports[0]["exit_code"] == 2 and reports[0]["error"] == error
    assert not out.exists()


def test_report_always_emitted(tmp_path, capsys):
    code, _, report = run(capsys, "spectrum", str(tmp_path / "nope.mtx"))
    assert code == 3
    assert report["exit_code"] == 3
    assert report["command"][0] == "signedcut"
    assert "elapsed_s" in report


@pytest.mark.parametrize("argv, code, stages", [
    (["gen", "cobra", "--out", "c.mtx"], 0, {"compute_s", "write_s"}),
    (["spectrum", "g.mtx"], 0, {"load_s", "compute_s", "write_s"}),
    (["partition", "g.mtx", "--solver", "lobpcg", "--out", "q.json"], 0, {"load_s", "compute_s", "write_s"}),
    (["compare", "g.mtx"], 0, {"load_s", "compute_s", "write_s"}),
    (["metrics", "g.mtx", "--partition", "p.json"], 0, {"load_s", "compute_s", "write_s"}),
    (["demo", "cobra"], 0, {"compute_s", "write_s"}),
    (["partition", "missing.mtx"], 3, set()),
    (["partition", "g.mtx", "--laplacian", "signed"], 4, {"load_s"}),
], ids=["gen", "spectrum", "partition", "compare", "metrics", "demo", "load-fails", "solve-fails"])
def test_report_times_each_completed_stage(argv, code, stages, tmp_path, capsys, monkeypatch):
    """The report's stages: load_s where a graph is read, then compute_s and write_s,
    each recorded once its stage completes; together they fit in elapsed_s."""
    monkeypatch.chdir(tmp_path)
    save_graph(cobra(), "g.mtx")
    with open("p.json", "w") as fh:
        json.dump({"n": 6, "side": [0, 0, 1, 1, 1, 1]}, fh)
    got, _, report = run(capsys, *argv)
    assert got == code and set(report["stages"]) == stages
    assert all(t >= 0 for t in report["stages"].values())
    assert sum(report["stages"].values()) <= report["elapsed_s"]


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's arguments."""

    def test_built_once(self):
        assert signedcut.cli.build_parser() is signedcut.cli.build_parser()

    def test_overrides_do_not_carry_into_the_next_call(self, tmp_path, capsys):
        first, second = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        code, _, report = run(capsys, "gen", "path", "--n", "10", "--override", "3:-0.5",
                              "--override", "7:0.25", "--out", first)
        assert code == 0 and report["config"]["override"] == ["3:-0.5", "7:0.25"]
        code, _, report = run(capsys, "gen", "path", "--n", "10", "--override", "5:-1",
                              "--out", second)
        assert code == 0 and report["config"]["override"] == ["5:-1"]
        assert load_graph(second) == path_string(StringSpec(10, overrides=((4, -1.0),)))
        code, _, report = run(capsys, "gen", "path", "--n", "10", "--out", first)
        assert code == 0 and report["config"]["override"] == []
        assert load_graph(first) == path_string(StringSpec(10))

    def test_usage_error_after_a_good_call(self, tmp_path, capsys):
        gfile = str(tmp_path / "p.mtx")
        code, _, _ = run(capsys, "gen", "path", "--n", "20", "--out", gfile)
        assert code == 0
        code, out, report = run(capsys, "partition", gfile, "--solver", "nope")
        assert code == 2 and out == ""
        assert report["exit_code"] == 2 and "--solver" in report["error"]
        code, _, report = run(capsys, "partition", gfile, "--out", str(tmp_path / "p.json"))
        assert code == 0 and report["config"]["solver"] == "dense"

    def test_version(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--version"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == f"signedcut {signedcut.__version__}\n"


class TestSubcommandFlags:
    """Each gen kind and each demo is its own subcommand, declaring only the flags it reads."""

    @pytest.mark.parametrize("argv, config", [
        (["gen", "noisy-string", "--out", "x.mtx"],
         {"kind": "noisy-string", "n": 12, "neg_edge": "8:-0.5", "noise_amp": 0.01, "seed": 0,
          "out": "x.mtx"}),
        (["gen", "path", "--out", "x.mtx"], {"kind": "path", "n": 75, "override": [], "out": "x.mtx"}),
        (["gen", "cobra", "--out", "x.mtx"], {"kind": "cobra", "out": "x.mtx"}),
        (["demo", "string-modes", "--out", "d"], {"name": "string-modes", "n": 75, "seed": 0, "out": "d"}),
        (["demo", "gap-study", "--out", "d"], {"name": "gap-study", "n": 100, "seed": 0, "out": "d"}),
        (["demo", "cobra", "--out", "d"], {"name": "cobra", "seed": 0, "out": "d"}),
        (["demo", "cobra"], {"name": "cobra", "seed": 0, "out": "demo-cobra"}),
    ], ids=["gen-noisy-string", "gen-path", "gen-cobra", "demo-string-modes", "demo-gap-study",
            "demo-cobra", "demo-cobra-default-out"])
    def test_report_config_holds_the_values_used(self, argv, config, tmp_path, capsys, monkeypatch):
        """Defaults are recorded as used, and a kind's config has no key for another kind's flag."""
        monkeypatch.chdir(tmp_path)
        code, _, report = run(capsys, *argv)
        assert code == 0 and report["config"] == config

    @pytest.mark.parametrize("argv, flags", [
        (["gen", "path"], {"--n", "--override", "--out"}),
        (["gen", "noisy-string"], {"--n", "--neg-edge", "--noise-amp", "--seed", "--out"}),
        (["gen", "cobra"], {"--out"}),
        (["gen", "dumbbell"], {"--out"}),
        (["demo", "noisy-string"], {"--n", "--seed", "--out"}),
        (["demo", "lobpcg-30"], {"--n", "--seed", "--out"}),
        (["demo", "cobra"], {"--seed", "--out"}),
    ], ids=["gen-path", "gen-noisy-string", "gen-cobra", "gen-dumbbell", "demo-noisy-string",
            "demo-lobpcg-30", "demo-cobra"])
    def test_help_lists_only_its_own_flags(self, argv, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags | {"--help"}

    def test_help_shows_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "noisy-string", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for default in ("vertex count (default 12)", "(default 8:-0.5)", "(default 0.01)",
                        "draw (default 0)"):
            assert default in text
