"""Uniform one-dimensional fibers and finite-difference calculus on them.

A fiber is either a closed circle of a given circumference or an interval
with endpoints included.  All derivative stencils are second order; on an
interval the endpoint stencils are one-sided but keep the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteValue, NonPositiveField

MIN_POINTS = 8


class Topology(Enum):
    CIRCLE = "circle"
    INTERVAL = "interval"


@dataclass(frozen=True)
class FiberGrid:
    """Uniform grid on a circle (no duplicated seam node) or an interval."""

    topology: Topology
    length: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.topology, Topology):
            object.__setattr__(self, "topology", Topology(self.topology))
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"fiber length must be positive, got {self.length}")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} grid points, got {self.n_points}")

    @property
    def periodic(self) -> bool:
        return self.topology is Topology.CIRCLE

    @property
    def spacing(self) -> float:
        if self.periodic:
            return self.length / self.n_points
        return self.length / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return self.spacing * np.arange(self.n_points)


def build_grid(topology, length: float, n_points: int) -> FiberGrid:
    return FiberGrid(Topology(topology), float(length), int(n_points))


@dataclass(frozen=True)
class _GridFunction:
    """Common storage for sampled fields; values are frozen after construction."""

    grid: FiberGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"field has {vals.shape} values for a grid of {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __mul__(self, other):
        """Pointwise product with a field on the same grid, an array or a number."""
        if isinstance(other, _GridFunction):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            other = other.values
        return type(self)(self.grid, self.values * np.asarray(other, dtype=float))


class ScalarField(_GridFunction):
    """Scalar function sampled on a fiber grid."""


class VectorAlongFiber(_GridFunction):
    """Tangent vector field along the fiber, stored by its single component."""


# the stencils act along the last axis: a block holds one field per row.  Each
# differences the whole block flattened, then writes the end columns over the
# seams between rows and divides once, with no temporary the size of vals;
# _differences is _diff1 before its division by 2h.
def _diff1(vals: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    return np.divide(out := _differences(vals, periodic), 2.0 * h, out)


def _differences(vals: np.ndarray, periodic: bool) -> np.ndarray:
    out = np.empty(vals.shape)
    flat = vals.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out.reshape(-1)[1:-1])
    if periodic:
        np.subtract(vals[..., 1], vals[..., -1], out[..., 0])
        np.subtract(vals[..., 0], vals[..., -2], out[..., -1])
    else:
        out[..., 0] = -3.0 * vals[..., 0] + 4.0 * vals[..., 1] - vals[..., 2]
        out[..., -1] = 3.0 * vals[..., -1] - 4.0 * vals[..., -2] + vals[..., -3]
    return out


def _diff2(vals: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    out = np.empty(vals.shape)
    flat, mid = vals.reshape(-1), out.reshape(-1)[1:-1]
    np.multiply(flat[1:-1], 2.0, mid)
    np.subtract(flat[2:], mid, mid)
    np.add(mid, flat[:-2], mid)
    if periodic:
        out[..., 0] = vals[..., 1] - 2.0 * vals[..., 0] + vals[..., -1]
        out[..., -1] = vals[..., 0] - 2.0 * vals[..., -1] + vals[..., -2]
    else:
        out[..., 0] = 2.0 * vals[..., 0] - 5.0 * vals[..., 1] + 4.0 * vals[..., 2] - vals[..., 3]
        out[..., -1] = (2.0 * vals[..., -1] - 5.0 * vals[..., -2] + 4.0 * vals[..., -3]
                        - vals[..., -4])
    return np.divide(out, h * h, out)


def derivative(field: ScalarField) -> ScalarField:
    """Second-order first derivative (centered; one-sided at interval ends)."""
    g = field.grid
    return ScalarField(g, _diff1(field.values, g.spacing, g.periodic))


def divergence(vec: VectorAlongFiber) -> ScalarField:
    """Divergence of a vector along the fiber; in one dimension, d/dx of its component."""
    g = vec.grid
    return ScalarField(g, _diff1(vec.values, g.spacing, g.periodic))


def laplacian(field: ScalarField) -> ScalarField:
    """Second-order second derivative (3-point; one-sided 4-point at interval ends)."""
    g = field.grid
    return ScalarField(g, _diff2(field.values, g.spacing, g.periodic))


def integrate(field) -> float:
    """Integral over the fiber: exact-rectangle sum on a circle, trapezoid on an interval."""
    g = field.grid
    if g.periodic:
        return float(g.spacing * np.sum(field.values))
    # np.trapezoid's sum, written out: NumPy 1.x has no np.trapezoid
    return float((g.spacing * (field.values[1:] + field.values[:-1]) / 2.0).sum())


def grad_log(u: ScalarField, scale: float = 1.0) -> VectorAlongFiber:
    """scale * d/dx log(u) for strictly positive u.

    Differencing sampled logarithms (rather than forming (d/dx u)/u) lets
    time-accumulated drift diagnostics telescope: differences of grad_log
    along a flow reduce to the derivative of a sum of per-step log ratios,
    so the stencil truncation error cancels instead of growing.
    """
    g = u.grid
    values, failure = _grad_log(u.values[None], scale, g.spacing, g.periodic)
    if failure:
        raise failure[1]
    return VectorAlongFiber(g, values[0])


def _grad_log(u: np.ndarray, scale: float, spacing: float, periodic: bool):
    """grad_log of records of fields along the last axis, one record per row of u:
    the values of every record, and (i, error) for the first record i holding
    a field that is not strictly positive, or None; the log is taken of every
    value, with no warning where one is not positive."""
    low = np.min(u, axis=-1).reshape(len(u), -1)
    bad = np.flatnonzero((low <= 0.0).any(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = scale * _diff1(np.log(u), spacing, periodic)
    if bad.size == 0:
        return values, None
    i = int(bad[0])
    m = float(low[i][low[i] <= 0.0][0])
    return values, (i, NonPositiveField(f"grad_log needs a strictly positive field, min value {m}"))


def fourier_derivative(field: ScalarField) -> ScalarField:
    """Spectral first derivative on a circle; cross-check mode for smooth fields."""
    g = field.grid
    if not g.periodic:
        raise ValueError("fourier_derivative is defined on circle fibers only")
    n = g.n_points
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.spacing)
    spec = np.fft.rfft(field.values) * (1j * k)
    if n % 2 == 0:
        spec[-1] = 0.0
    return ScalarField(g, np.fft.irfft(spec, n))
