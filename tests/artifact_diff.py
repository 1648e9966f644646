"""Compare two artifact trees column by column: the equivalence gate for a
change that alters the arithmetic on purpose.

    python3 tests/artifact_diff.py PARENT CHANGE

A run is a directory holding summary.json.  Every run of PARENT must be in
CHANGE with the same files, CSV headers, row counts and status.  For each
CSV column, the largest difference over the run's files is divided by the
column's largest absolute value over the run in either tree.  The stepped
state columns (rho, u, f_<i>, H_direct) must stay within BOUND.  Every
other column is derived from the state through 1/h or 1/h^2 stencils or is
itself a roundoff monitor, so where it differs it is reported without a
bound, parent value next to change value where the scaled difference is
largest; so is every number in summary.json's results.  Last come one
line per drift result (the roundoff monitors max_mass_drift,
max_conservation_drift, max_arc_residual and evolution_crosscheck.*) with
its largest change/parent ratio over all runs and the run where it occurs:
a run-wide rise shows there, where the per-run lines scatter it.  They
report only.  Exit status 0 when every state column holds the bound and the
trees match in structure, else 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

STATE = re.compile(r"rho|u|f_\d+|H_direct")
BOUND = 1e-9
DRIFT = re.compile(r"results\.(max_mass_drift|max_conservation_drift|max_arc_residual"
                   r"|evolution_crosscheck\..+)")


def _columns(run: Path) -> tuple[dict, dict]:
    """Column name -> values over the run's CSV files, and file -> (header, rows)."""
    columns, shapes = {}, {}
    for path in sorted(run.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        shapes[path.name] = (header, len(rows))
        values = np.array(rows, dtype=float).reshape(len(rows), len(header))
        for name, col in zip(header, values.T):
            columns[name] = np.concatenate([columns.get(name, np.empty(0)), col])
    return columns, shapes


def _results(run: Path) -> tuple[str, dict]:
    """The run's status and its results flattened to dotted keys."""
    summary = json.loads((run / "summary.json").read_text())
    flat = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else key, item)
        else:
            flat[prefix] = value

    walk("", summary.get("results", {}))
    return summary["status"], flat


def _scaled(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """Largest |a - b| over the largest |a| or |b|, and where it is largest."""
    gap = np.abs(a - b)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    at = int(np.argmax(gap)) if gap.size else 0
    worst = float(gap[at]) if gap.size else 0.0
    return (worst / scale if scale > 0.0 else worst), at


def compare_runs(parent: Path, change: Path) -> tuple[list, list]:
    """(rows, problems): one row (run, column, scaled, parent, change, is_state)
    per column and result number, and the structural mismatches found."""
    rows, problems = [], []
    for summary in sorted(parent.rglob("summary.json")):
        run = summary.parent.relative_to(parent)
        mine = change / run
        if not (mine / "summary.json").is_file():
            problems.append(f"{run}: missing from {change}")
            continue
        files = sorted(p.name for p in (parent / run).iterdir())
        if files != sorted(p.name for p in mine.iterdir()):
            problems.append(f"{run}: files differ")
            continue
        (old_cols, old_shapes), (new_cols, new_shapes) = _columns(parent / run), _columns(mine)
        if old_shapes != new_shapes:
            problems.append(f"{run}: CSV headers or row counts differ")
            continue
        (old_status, old_res), (new_status, new_res) = _results(parent / run), _results(mine)
        if old_status != new_status or old_res.keys() != new_res.keys():
            problems.append(f"{run}: status or result keys differ")
            continue
        for name, old in old_cols.items():
            scaled, at = _scaled(old, new_cols[name])
            rows.append((str(run), name, scaled, float(old[at]), float(new_cols[name][at]),
                         bool(STATE.fullmatch(name))))
        for key, old in old_res.items():
            new = new_res[key]
            if isinstance(old, float) and isinstance(new, float):
                scaled = _scaled(np.array([old]), np.array([new]))[0]
            else:
                scaled = 0.0 if old == new else float("inf")
            rows.append((str(run), f"results.{key}", scaled, old, new, False))
    return rows, problems


def drift_lines(rows: list) -> list[str]:
    """One line per drift result of compare_runs' rows: the largest
    change/parent ratio over the runs holding it, where it occurs, and over
    how many runs (a ratio of 0/0 counts as 1, of x/0 as inf)."""
    worst, runs = {}, {}
    for run, name, _, old, new, _ in rows:
        if not (DRIFT.fullmatch(name) and isinstance(old, float) and isinstance(new, float)):
            continue
        ratio = new / old if old else (1.0 if new == old else float("inf"))
        runs[name] = runs.get(name, 0) + 1
        if name not in worst or ratio > worst[name][0]:
            worst[name] = (ratio, run, old, new)
    return [f"drift {name.removeprefix('results.')}: largest change/parent {ratio:.3g} in "
            f"{run} (parent {old:.3g}, change {new:.3g}) over {runs[name]} runs"
            for name, (ratio, run, old, new) in sorted(worst.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows, problems = compare_runs(args.parent, args.change)
    for run, name, scaled, old, new, is_state in rows:
        if is_state:
            verdict = "ok" if scaled <= BOUND else "EXCEEDS BOUND"
            print(f"{run}  {name}  {scaled:.3g}  state, bound {BOUND:g}: {verdict}")
        elif scaled != 0.0:
            print(f"{run}  {name}  {scaled:.3g}  parent {old!r}  change {new!r}")
    for problem in problems:
        print(problem)
    for line in drift_lines(rows):
        print(line)
    state = [row for row in rows if row[5]]
    worst = max(state, key=lambda row: row[2], default=("-", "-", 0.0))
    failed = problems or worst[2] > BOUND
    print(f"{len({row[0] for row in rows})} runs, {len(state)} state columns, worst "
          f"{worst[2]:.3g} ({worst[0]} {worst[1]}), bound {BOUND:g}: "
          f"{'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
