"""The equivalence gate of tests/artifact_diff.py on a real artifact tree."""
import csv
import json
import shutil

import pytest

import artifact_diff
from folflow.cli import execute_config
from folflow.config import parse_config_text

SURFACE = """\
scenario: surface
grid: {topology: interval, length: 1.0, n_points: 33}
time: {dt: 0.001, t_end: 0.02, record_every: 5, snapshots: [0.0, 0.02]}
initial: {family: linear_sine_bump, left: 0.5, right: 0.8, amplitude: 0.05, mode: 1}
"""


@pytest.fixture
def trees(tmp_path):
    parent = tmp_path / "parent"
    execute_config(parse_config_text(SURFACE), parent / "surface", quiet=True)
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    return parent, change


def _nudge(path, column, by):
    """Add `by` times the column's largest magnitude to its value in row 3."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    j = header.index(column)
    scale = max(abs(float(row[j])) for row in rows)
    rows[3][j] = repr(float(rows[3][j]) + by * scale)
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")


def test_a_tree_against_itself_differs_nowhere(trees, capsys):
    assert artifact_diff.main([str(trees[0]), str(trees[1])]) == 0
    rows, problems = artifact_diff.compare_runs(*trees)
    assert problems == [] and rows
    assert all(scaled == 0.0 for _, _, scaled, *_ in rows)
    assert capsys.readouterr().out.splitlines()[-1].endswith("worst 0 (surface rho), "
                                                             "bound 1e-09: PASS")


def test_a_state_value_off_by_1e_8_is_flagged(trees, capsys):
    _nudge(trees[1] / "surface" / "fields_0.020000.csv", "rho", 1e-8)
    assert artifact_diff.main([str(trees[0]), str(trees[1])]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "surface  rho  1e-08  state, bound 1e-09: EXCEEDS BOUND" in out
    assert out[-1].endswith("(surface rho), bound 1e-09: FAIL")


def test_a_derived_column_is_reported_without_a_bound(trees, capsys):
    _nudge(trees[1] / "surface" / "fields_0.020000.csv", "K", 1e-3)
    assert artifact_diff.main([str(trees[0]), str(trees[1])]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("surface  K  ")]
    assert len(lines) == 1 and "  parent 0.2" in lines[0] and "  change 0.2" in lines[0]


def test_a_missing_file_fails(trees, capsys):
    (trees[1] / "surface" / "fields_0.020000.csv").unlink()
    assert artifact_diff.main([str(trees[0]), str(trees[1])]) == 1
    assert "surface: files differ" in capsys.readouterr().out


def test_drift_results_end_the_report_with_their_largest_ratio(trees, capsys):
    # a drift that triples is one line before the verdict, and reports only
    path = trees[1] / "surface" / "summary.json"
    summary = json.loads(path.read_text())
    summary["results"]["max_arc_residual"] *= 3.0
    summary["results"]["evolution_crosscheck"]["K_residual"] = 0.0
    path.write_text(json.dumps(summary))
    assert artifact_diff.main([str(trees[0]), str(trees[1])]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:-1] == [
        "drift evolution_crosscheck.K_residual: largest change/parent 0 in surface "
        "(parent 0.0158, change 0) over 1 runs",
        "drift evolution_crosscheck.k_residual: largest change/parent 1 in surface "
        "(parent 0.00226, change 0.00226) over 1 runs",
        "drift max_arc_residual: largest change/parent 3 in surface "
        "(parent 2.22e-16, change 6.66e-16) over 1 runs"]
    assert out[-1].endswith("bound 1e-09: PASS")
