"""Tests of the benchmark's output checks against a small simulated cohort."""
import json

import pytest

import workloads
from stressmon import cli, dataset


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    config = root / "config.json"
    config.write_text(json.dumps(workloads.cohort_config(3, 1, 5)))
    assert cli.main(["simulate", "--config", str(config), "--out", str(root / "sim")]) == 0
    assert cli.main(["featurize", "--data", str(root / "sim"),
                     "--out", str(root / "matrix.csv")]) == 0
    return root


def test_labeled_window_count_matches_featurize(cohort):
    rows = dataset.read_matrix_csv(cohort / "matrix.csv").n_rows
    assert rows > 0
    assert workloads.count_labeled_windows(cohort / "sim") == rows


def test_featurize_check_flags_a_dropped_row(cohort, tmp_path):
    argv = ["featurize", "--data", str(cohort / "sim"), "--out", str(cohort / "matrix.csv")]
    assert workloads.check_step(argv, cohort) == []
    lines = (cohort / "matrix.csv").read_text().splitlines(keepends=True)
    short = tmp_path / "matrix.csv"
    short.write_text("".join(lines[:-1]))
    argv[-1] = str(short)
    assert workloads.check_step(argv, tmp_path) != []


def test_digest_mismatches():
    assert workloads.digest_mismatches({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == []
    assert workloads.digest_mismatches({"a": "1", "b": "3"}, {"a": "1", "b": "2", "c": "4"}) \
        == ["b", "c"]


def test_habit_profiles_sit_on_the_last_three_users():
    config = workloads.cohort_config(5, 1, 9)
    assert sorted(config["per_user"]) == workloads.habit_users(5) == ["u03", "u04", "u05"]
    assert config["seed"] == 9
