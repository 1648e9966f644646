"""Uniform one-dimensional fibers and finite-difference calculus on them.

A fiber is either a closed circle of a given circumference or an interval
with endpoints included.  All derivative stencils are second order; on an
interval the endpoint stencils are one-sided but keep the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

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


# the stencils act along the last axis: a block holds one field per row
def _diff1(vals: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(vals, -1, axis=-1) - np.roll(vals, 1, axis=-1)) / (2.0 * h)
    out = np.empty_like(vals)
    out[..., 1:-1] = (vals[..., 2:] - vals[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * vals[..., 0] + 4.0 * vals[..., 1] - vals[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * vals[..., -1] - 4.0 * vals[..., -2] + vals[..., -3]) / (2.0 * h)
    return out


def _diff2(vals: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    h2 = h * h
    if periodic:
        return (np.roll(vals, -1, axis=-1) - 2.0 * vals + np.roll(vals, 1, axis=-1)) / h2
    out = np.empty_like(vals)
    out[..., 1:-1] = (vals[..., 2:] - 2.0 * vals[..., 1:-1] + vals[..., :-2]) / h2
    out[..., 0] = (2.0 * vals[..., 0] - 5.0 * vals[..., 1] + 4.0 * vals[..., 2]
                   - vals[..., 3]) / h2
    out[..., -1] = (2.0 * vals[..., -1] - 5.0 * vals[..., -2] + 4.0 * vals[..., -3]
                    - vals[..., -4]) / h2
    return out


def laplacian_matrix(grid: FiberGrid) -> sp.csr_matrix:
    """Sparse 3-point second difference over all nodes of the grid.

    On a circle the stencil wraps round through two corner entries.  On an
    interval the two end rows are zero, so an operator built from this
    matrix leaves the end values where they are.
    """
    n = grid.n_points
    inv = 1.0 / (grid.spacing * grid.spacing)
    main = np.full(n, -2.0 * inv)
    lower = np.full(n - 1, inv)
    upper = np.full(n - 1, inv)
    if grid.periodic:
        return sp.diags([[inv], lower, main, upper, [inv]], [-(n - 1), -1, 0, 1, n - 1],
                        format="csr")
    # row 0 holds main[0] and upper[0]; row n-1 holds lower[-1] and main[-1]
    main[[0, -1]] = lower[-1] = upper[0] = 0.0
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


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
    return float(np.trapezoid(field.values, dx=g.spacing))


def grad_log(u: ScalarField, scale: float = 1.0) -> VectorAlongFiber:
    """scale * d/dx log(u) for strictly positive u.

    Differencing sampled logarithms (rather than forming (d/dx u)/u) lets
    time-accumulated drift diagnostics telescope: differences of grad_log
    along a flow reduce to the derivative of a sum of per-step log ratios,
    so the stencil truncation error cancels instead of growing.
    """
    m = float(np.min(u.values))
    if m <= 0.0:
        raise NonPositiveField(f"grad_log needs a strictly positive field, min value {m}")
    g = u.grid
    return VectorAlongFiber(g, scale * _diff1(np.log(u.values), g.spacing, g.periodic))


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
