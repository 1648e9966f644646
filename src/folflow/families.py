"""Named initial-data families evaluated on fiber grids."""
from __future__ import annotations

import csv

import numpy as np

from .fiber import FiberGrid, ScalarField

FAMILY_PARAMS = {
    "constant": ("value",),
    "linear": ("a", "b"),
    "cosine_perturbed": ("base", "amplitude", "mode"),
    "gaussian_bump": ("center", "width", "height"),
    "linear_sine_bump": ("left", "right", "amplitude", "mode"),
    "from_csv": ("path",),
}


def build_field(grid: FiberGrid, family: str, params: dict) -> ScalarField:
    """Evaluate a named family on the grid.

    cosine_perturbed uses whole waves of the fiber (mode full periods over
    the length); linear_sine_bump interpolates its endpoint values and adds
    a sine bump vanishing at both ends.  Parameters that overflow the
    evaluation are not warned about: ScalarField rejects the non-finite
    values with NonFiniteValue.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown field family {family!r}")
    expected = set(FAMILY_PARAMS[family])
    got = set(params)
    if got != expected:
        raise ValueError(
            f"family {family!r} takes parameters {sorted(expected)}, got {sorted(got)}"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = grid.x
        length = grid.length
        if family == "constant":
            vals = np.full(grid.n_points, float(params["value"]))
        elif family == "linear":
            vals = float(params["a"]) + float(params["b"]) * x
        elif family == "cosine_perturbed":
            theta = 2.0 * np.pi * float(params["mode"]) * x / length
            vals = float(params["base"]) + float(params["amplitude"]) * np.cos(theta)
        elif family == "gaussian_bump":
            w = float(params["width"])
            if w <= 0.0:
                raise ValueError("gaussian_bump width must be positive")
            vals = float(params["height"]) * np.exp(-((x - float(params["center"])) ** 2) / (2.0 * w * w))
        elif family == "linear_sine_bump":
            left, right = float(params["left"]), float(params["right"])
            vals = left + (right - left) * x / length
            vals = vals + float(params["amplitude"]) * np.sin(np.pi * float(params["mode"]) * x / length)
        else:
            vals = _read_csv_field(str(params["path"]), grid)
    return ScalarField(grid, vals)


def _csv_sample(row: list) -> tuple[float, float]:
    if len(row) != 2:
        raise ValueError(f"expected the 2 columns x,value, got {len(row)}")
    try:
        x, value = float(row[0]), float(row[1])
    except ValueError:
        raise ValueError(f"{','.join(row)!r} is not a pair of numbers") from None
    for name, number in (("sample point x", x), ("value", value)):
        if not np.isfinite(number):
            raise ValueError(f"{name} = {number} is not finite")
    return x, value


def _read_csv_field(path: str, grid: FiberGrid) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if [c.strip() for c in next(reader, [])] != ["x", "value"]:
                raise ValueError("expected header 'x,value'")
            samples = [_csv_sample(row) for row in reader]
        except (ValueError, csv.Error) as err:
            # an empty file misses its header on line 1
            raise ValueError(f"{path}, line {max(reader.line_num, 1)}: {err}") from None
    if len(samples) != grid.n_points:
        raise ValueError(f"{path}: has {len(samples)} rows for a grid of {grid.n_points} points")
    xs, vals = np.array(samples).T
    if np.max(np.abs(xs - grid.x)) > 1e-9 * max(grid.length, 1.0):
        raise ValueError(f"{path}: sample points do not match the grid")
    return vals
