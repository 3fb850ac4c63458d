"""The summary arithmetic of scripts/bench_pairs.py and its reading of
pytest's summary line, on made-up pairs and lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_medians_iqrs_and_pairs_won():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 5.5]   # pair 1 is a tie
    got = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert got["pairs"] == 5
    assert got["parent_median"] == 3.0 and got["change_median"] == 3.0
    assert got["parent_quartiles"] == [2.0, 4.0]
    assert got["parent_iqr"] == 2.0
    assert got["change_quartiles"] == [2.0, 3.5] and got["change_iqr"] == 1.5
    assert got["pairs_won_by_change"] == 2    # pairs 0 and 3
    assert got["pairs_won_by_parent"] == 2    # pairs 2 and 4
    assert got["relative_change"] == 0.0 and got["within_bound"] is True


@pytest.mark.parametrize("better, change, won, within", [
    ("lower", [1.3] * 4, 0, False),    # 30% worse against a 25% bound
    ("lower", [1.2] * 4, 0, True),
    ("higher", [1.3] * 4, 4, True),
    ("higher", [0.7] * 4, 0, False),
])
def test_bound_follows_the_better_direction(better, change, won, within):
    got = bench_pairs.summarize([1.0] * 4, change, better, 0.25)
    assert got["pairs_won_by_change"] == won
    assert got["within_bound"] is within


def test_missing_value_drops_its_pair():
    got = bench_pairs.summarize([1.0, None, 3.0], [2.0, 1.0, 2.0],
                                "lower", 0.25)
    assert got["pairs"] == 2
    assert got["pairs_won_by_change"] == 1 and got["pairs_won_by_parent"] == 1
    assert got["parent_median"] == 2.0 and got["change_median"] == 2.0


@pytest.mark.parametrize("line, counts", [
    ("309 passed in 126.12s (0:02:06)", (309, 0, 0)),
    ("1 failed, 308 passed, 2 warnings in 130.20s (0:02:10)", (308, 1, 0)),
    ("2 failed, 290 passed, 1 skipped, 3 errors in 99.01s", (290, 2, 3)),
    ("1 error in 0.52s", (0, 0, 1)),
    ("no tests ran in 0.01s", (0, 0, 0)),
    ("", (0, 0, 0)),
])
def test_pytest_summary_line_counts(line, counts):
    got = bench_pairs.pytest_counts(line)
    assert (got["passed"], got["failed"], got["errors"]) == counts
