import json

import numpy as np
import pytest

from signedcut import (
    DenseEigenproblem,
    Spectrum,
    StringSpec,
    bisect,
    cobra,
    dense_spectrum,
    dumbbell,
    fiedler,
    gap_study,
    laplacian,
    noisy_string,
    path_string,
)
from signedcut.cli import main
from signedcut.experiments import DEMOS, cobra_demo, compare, dumbbell_demo, noisy_string_demo

WEIGHTS = (-0.01, -0.05, -0.1)


@pytest.mark.parametrize("n", [75, 100, 300])
def test_gap_study_rows_are_compare_of_each_string(n):
    """Each sweep row holds the gaps, condition numbers and ratios ``compare`` gives that string."""
    doc = gap_study(n, 36, WEIGHTS)
    assert [row["weight"] for row in doc["sweep"]] == list(WEIGHTS)
    for row in doc["sweep"]:
        c = compare(path_string(StringSpec(n, overrides=((36, row["weight"]),))), [])
        assert doc["baseline"] == {"gap": c["baseline"]["gap"],
                                   "condition_number": c["baseline"]["condition_number"]}
        assert row["gap_standard"] == c["standard"]["gap"]
        assert row["gap_signed"] == c["signed"]["gap"]
        assert row["condition_standard"] == c["standard"]["condition_number"]
        assert row["condition_signed"] == c["signed"]["condition_number"]
        for name, ratio in c["ratios"].items():
            assert row[name] == ratio


@pytest.mark.parametrize("weights", [(), (0.0,), (-0.05, 0.05), (float("nan"),)],
                         ids=["empty", "zero", "positive", "nan"])
def test_gap_study_needs_negative_weights(weights):
    """Only a negative weight has the cut string as its baseline; an empty sweep has no baseline."""
    with pytest.raises(ValueError, match="negative weights"):
        gap_study(100, 36, weights)


def run_in_empty_dir(path, monkeypatch, experiment, *args):
    """Run an experiment from the empty directory ``path``, and check that it writes nothing."""
    monkeypatch.chdir(path)
    warnings: list[str] = []
    summary, artifacts = experiment(*args, warnings)
    assert list(path.iterdir()) == []
    return summary, dict(artifacts), warnings


def test_cobra_demo_splits(tmp_path, monkeypatch):
    """Criterion 4: {1,2}|{3,4}, then {1,2,3,4}|{5,6} after deletion; the signed
    vector v2 cuts vertex 3 off, with select_fiedler's sign and exact zeros."""
    summary, files, warnings = run_in_empty_dir(tmp_path, monkeypatch, cobra_demo, None, 0)
    assert list(files) == ["cobra.mtx", "cobra.json"]
    assert files["cobra.mtx"] == cobra() and files["cobra.json"] == summary
    a = set(summary["standard_side_a"])
    assert {1, 2} <= a and not a & {3, 4} or {3, 4} <= a and not a & {1, 2}
    assert summary["nullified_side_a"] in ([1, 2, 3, 4], [5, 6])
    assert summary["signed_second_signs"] == [1, 1, -1, 0, 0, 0]
    assert summary["signed_first_bisects"] is False
    assert warnings == ["signed: first eigenvector has one sign, bisection degenerate"]


def test_dumbbell_demo_splits_the_cliques(tmp_path, monkeypatch):
    """Criterion 5: the standard split is the two cliques."""
    summary, files, warnings = run_in_empty_dir(tmp_path, monkeypatch, dumbbell_demo, None, 0)
    assert list(files) == ["dumbbell.mtx", "dumbbell.json"]
    assert files["dumbbell.mtx"] == dumbbell() and files["dumbbell.json"] == summary
    assert summary["standard_side_a"] in (list(range(1, 7)), list(range(7, 14)))
    assert warnings == []


@pytest.mark.parametrize("seed", range(4))
def test_noisy_string_demo_outcomes(seed, tmp_path, monkeypatch):
    """Criterion 9: the standard split is {1..8}|{9..12} and the signed pair is
    flagged as clustered, as the library says for that string."""
    summary, files, warnings = run_in_empty_dir(tmp_path, monkeypatch, noisy_string_demo, 12, seed)
    g = noisy_string(12, (7, -0.5), 1e-2, seed)
    assert list(files) == ["noisy-string.mtx", "noisy-string-standard.csv",
                           "noisy-string-signed.csv", "noisy-string-partition.json"]
    assert files["noisy-string.mtx"] == g
    side = bisect(fiedler(g, "standard"))
    assert summary["standard_side_a"] == (np.flatnonzero(side == 0) + 1).tolist()
    assert files["noisy-string-partition.json"]["side"] == side.tolist()
    assert summary["standard_side_a"] in (list(range(1, 9)), list(range(9, 13)))
    assert summary["signed_clustered_warning"] is fiedler(g, "signed").clustered_warning is True
    assert warnings == ["signed: two smallest eigenvalues form a cluster"]
    for name, kind, k in (("noisy-string-standard.csv", "standard", 3), ("noisy-string-signed.csv", "signed", 2)):
        s = files[name]
        assert isinstance(s, Spectrum) and s.eigenvectors.shape == (12, k)
        op = laplacian(g, kind)
        assert np.array_equal(s.eigenvalues, DenseEigenproblem(op).eigenvalues[:k])
        oracle = dense_spectrum(op).eigenvalues
        assert np.abs(s.eigenvalues - oracle[:k]).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("name", ["string-modes", "weak-link", "negative-edge"])
def test_mode_demos_write_nothing(name, tmp_path, monkeypatch):
    """The mode table's strings: five modes per kind, and the summary holds their eigenvalues."""
    summary, files, _ = run_in_empty_dir(tmp_path, monkeypatch, DEMOS[name][0], 75, 0)
    assert summary["n"] == 75
    for s in files.values():
        assert s.eigenvalues.tolist() in summary.values() and s.eigenvectors.shape == (75, 5)


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_writes_the_experiments_artifacts_in_order(name, tmp_path, capsys):
    """``demo`` writes exactly its experiment's artifacts, and reports them in the experiment's order."""
    run, n, _ = DEMOS[name]
    summary, artifacts = run(n, 0, [])
    out = tmp_path / name
    assert main(["demo", name, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.err.splitlines()[-1])
    assert report["outputs"] == [str(out / file) for file, _ in artifacts]
    assert sorted(p.name for p in out.iterdir()) == sorted(file for file, _ in artifacts)
    assert json.loads(captured.out.splitlines()[-1]) == json.loads(json.dumps(summary))
