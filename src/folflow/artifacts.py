"""Deterministic CSV/JSON artifact writers.

Numbers are serialized with the shortest round-trip decimal (Python repr),
so identical runs produce byte-identical files.  Wall-clock timing lives
only under the summary 'meta' key, which golden comparisons drop.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trajectory(path: Path, columns: list[str], rows: list[dict]):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def snapshot_name(t: float) -> str:
    return f"fields_{t:.6f}.csv"


def write_fields(path: Path, x: np.ndarray, fields: dict[str, np.ndarray]):
    # tolist() gives Python floats (or ints), whose repr is fmt's text; 512
    # rows at a time keep few of them alive
    cols = [np.asarray(col) for col in (x, *fields.values())]
    with open(path, "w") as out:
        out.write(",".join(["x", *fields]) + "\n")
        for lo in range(0, len(x), 512):
            rows = zip(*(col[lo:lo + 512].tolist() for col in cols))
            out.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def _jsonable(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_summary(path: Path, payload: dict):
    Path(path).write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


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
