"""Deterministic CSV/JSON artifact writers.

Numbers are serialized with the shortest round-trip decimal (Python repr),
so identical runs produce byte-identical files.  Wall-clock timing lives
only under the summary 'meta' key, which golden comparisons drop.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_trajectory(path: Path, columns, series: dict[str, np.ndarray]):
    # a line per record of the columns; tolist() gives Python floats, written by repr
    rows = zip(*(series[c].tolist() for c in columns))
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def snapshot_name(t: float) -> str:
    return f"fields_{t:.6f}.csv"


def write_fields(path: Path, x: np.ndarray, fields: dict[str, np.ndarray]):
    # tolist() gives Python floats (or ints), written by repr; 512 rows at a
    # time keep few of them alive
    cols = [np.asarray(col) for col in (x, *fields.values())]
    with open(path, "w") as out:
        out.write(",".join(["x", *fields]) + "\n")
        for lo in range(0, len(x), 512):
            rows = zip(*(col[lo:lo + 512].tolist() for col in cols))
            out.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_summary(path: Path, payload: dict):
    # numpy float64 subclasses float, which json writes with float.__repr__;
    # arrays and the other numpy scalars are written as their tolist()
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda obj: obj.tolist())
    Path(path).write_text(text + "\n")


def write_plot_script(path: Path, scenario: str, y_column: str):
    text = "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set logscale y",
            f"set title '{scenario}: {y_column}'",
            "set xlabel 't'",
            f"plot 'trajectory.csv' using 't':'{y_column}' with lines",
            "pause -1",
        ]
    )
    Path(path).write_text(text + "\n")
