import pytest

from signedcut import StringSpec, gap_study, path_string
from signedcut.experiments import compare

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
