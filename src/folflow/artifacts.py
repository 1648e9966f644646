"""Deterministic CSV/JSON artifact writers.

Numbers are serialized with the shortest round-trip decimal (Python repr), a
column at a time, with rows joined by str.join, so identical runs produce
byte-identical files.  Wall-clock timing lives only under the summary 'meta'
key, which golden comparisons drop.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_CHUNK = 512  # rows a fields file formats at a time, so few Python strings are alive


def _formatted(col):
    return map(repr, np.asarray(col).tolist())  # Python floats (or ints), by repr


class SharedColumn:
    """A column that several fields files write: the first write_fields call
    formats it, one newline-joined string per _CHUNK rows (about 20 bytes a
    value), that each call splits back into values."""

    def __init__(self, values: np.ndarray):
        self.values, self.text = values, []

    def __len__(self):
        return len(self.values)

    def chunk(self, lo: int) -> list[str]:
        self.text = self.text or ["\n".join(_formatted(self.values[at:at + _CHUNK]))
                                  for at in range(0, len(self), _CHUNK)]
        return self.text[lo // _CHUNK].split("\n")


def shared_columns(snapshots: list[dict[str, np.ndarray]]) -> dict[str, SharedColumn]:
    """The columns with the same bits in each of two or more snapshots.  Bits,
    not values: -0.0 == 0.0, but their repr differ."""
    if len(snapshots) < 2:
        return {}
    first, *rest = snapshots
    return {name: SharedColumn(col) for name, col in first.items() if all(
        (other[name].dtype, other[name].tobytes()) == (col.dtype, col.tobytes()) for other in rest)}


def write_trajectory(path: Path, columns, series: dict[str, np.ndarray]):
    rows = map(",".join, zip(*(_formatted(series[c]) for c in columns)))
    Path(path).write_text("\n".join([",".join(columns), *rows]) + "\n")


def snapshot_name(t: float) -> str:
    return f"fields_{t:.6f}.csv"


def write_fields(path: Path, x: np.ndarray | SharedColumn, fields: dict):
    cols = [x, *fields.values()]
    with open(path, "w") as out:
        out.write(",".join(["x", *fields]) + "\n")
        for lo in range(0, len(x), _CHUNK):
            text = [col.chunk(lo) if isinstance(col, SharedColumn)
                    else _formatted(col[lo:lo + _CHUNK]) for col in cols]
            out.write("\n".join(map(",".join, zip(*text))) + "\n")


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
