"""Time steppers for linear heat-reaction and forced viscous Burgers equations.

Heat-reaction:   du/dt = nu * u_xx + V * u
Forced Burgers:  dH/dt = nu * H_xx - (H^2)_x - nu^2 * (forcing)_x

Both steppers are built on the one fiber Laplacian, fiber.laplacian_matrix;
on an interval its zero end rows hold the end values fixed, so a step needs
no boundary source term.  Both are Crank-Nicolson: the heat step fully, the
Burgers step with implicit diffusion and an explicit midpoint stage for
advection and forcing (IMEX), of the same order.  A step maps a field to a
field of the same type, and values to values: one field's (n,), or (n, m)
with one column per field, stepped by one multi-column solve.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FolflowError, SolverSingular
from .fiber import FiberGrid, ScalarField, _diff1, _GridFunction, laplacian_matrix


class Scheme(Enum):
    """The time scheme of both steppers; Crank-Nicolson is the only one."""

    CRANK_NICOLSON = "crank_nicolson"


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Dirichlet:
    left: float
    right: float


PERIODIC = Periodic()


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    diffusivity: float = 1.0
    scheme: Scheme = Scheme.CRANK_NICOLSON
    boundary: Periodic | Dirichlet = PERIODIC

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.diffusivity > 0.0 and np.isfinite(self.diffusivity)):
            raise ValueError(f"diffusivity must be positive, got {self.diffusivity}")


def _check_boundary_topology(grid: FiberGrid, cfg: StepperConfig):
    if grid.periodic and isinstance(cfg.boundary, Dirichlet):
        raise ValueError("Dirichlet boundary on a circle fiber")
    if not grid.periodic and isinstance(cfg.boundary, Periodic):
        raise ValueError("interval fiber needs Dirichlet boundary data")


def _factor(matrix: sp.spmatrix):
    # diagonal pivots: an interval operator's identity end rows must pivot
    # on themselves, or the solve smears roundoff into the held end values.
    # Elimination without row exchanges is stable while the matrix is
    # diagonally dominant, which I - c*(nu*Lap + V) is while c*max(V) < 1.
    try:
        lu = spla.splu(matrix.tocsc(), diag_pivot_thresh=0.0)
    except RuntimeError as err:
        raise SolverSingular(f"implicit step matrix is singular: {err}") from err
    # splu happily factors a numerically singular matrix into a roundoff
    # pivot; catch that here rather than emitting garbage solutions
    diag = np.abs(lu.U.diagonal())
    if np.min(diag) <= 1e-12 * np.max(diag):
        raise SolverSingular(
            f"implicit step matrix is numerically singular "
            f"(pivot ratio {np.min(diag) / np.max(diag):.3g})"
        )
    return lu


def _solve(lu, rhs: np.ndarray) -> np.ndarray:
    out = lu.solve(rhs)
    if not np.isfinite(out).all():
        raise SolverSingular("implicit step produced non-finite values")
    return out


def _fields_too(step):
    """A step on values that also maps a field to a field of the same type."""
    @functools.wraps(step)
    def stepped(self, state):
        if not isinstance(state, _GridFunction):
            return step(self, state)
        if state.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return type(state)(self.grid, step(self, state.values))
    return stepped


def _moving(grid: FiberGrid) -> np.ndarray:
    """1 at nodes that evolve, 0 at the held ends of an interval."""
    moving = np.ones(grid.n_points)
    if not grid.periodic:
        moving[[0, -1]] = 0.0
    return moving


class HeatStepper:
    """Prefactored stepper for du/dt = nu*u_xx + V*u on a fixed grid.

    Crank-Nicolson factorizations are built once, so repeated steps cost a
    pair of triangular solves.  On an interval the operator has zero end
    rows, so every step returns the end values it was given.
    """

    def __init__(self, grid: FiberGrid, V: ScalarField | None, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if V is not None and V.grid != grid:
            raise ValueError("reaction coefficient lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        a_op = cfg.diffusivity * laplacian_matrix(grid)
        if V is not None:
            a_op = a_op + sp.diags(_moving(grid) * V.values)
        a_op = a_op.tocsr()
        c = 0.5 * cfg.dt
        eye = sp.identity(grid.n_points, format="csr")
        self._plus = (eye + c * a_op).tocsr()
        self._lu = _factor(eye - c * a_op)

    def _check_matches_boundary(self, vals: np.ndarray):
        bnd = self.cfg.boundary
        left, right = vals[0], vals[-1]
        # the ends of a marched field match exactly: the operator holds them
        if vals.ndim == 1 and left == bnd.left and right == bnd.right:
            return
        tol = 1e-9 * (1.0 + np.max(np.abs(vals), axis=0))
        if np.any(np.abs(left - bnd.left) > tol) or np.any(np.abs(right - bnd.right) > tol):
            raise ValueError("field does not match the Dirichlet boundary values")

    @_fields_too
    def step(self, u: np.ndarray) -> np.ndarray:
        if isinstance(self.cfg.boundary, Dirichlet):
            self._check_matches_boundary(u)
        return _solve(self._lu, self._plus @ u)


class BurgersStepper:
    """Prefactored stepper for dH/dt = nu*H_xx - (H^2)_x - nu^2*(forcing)_x.

    Diffusion is treated by Crank-Nicolson, advection and forcing by an
    explicit midpoint stage, giving a second-order step without history.
    On an interval the end values are held.
    """

    def __init__(self, grid: FiberGrid, forcing: ScalarField, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if forcing.grid != grid:
            raise ValueError("forcing lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        nu = cfg.diffusivity
        self._moving = _moving(grid)
        self._force_x = nu * nu * _diff1(forcing.values, grid.spacing, grid.periodic)
        self._diff = nu * laplacian_matrix(grid)
        eye = sp.identity(grid.n_points, format="csr")
        self._lu_half = _factor(eye - 0.25 * cfg.dt * self._diff)
        self._lu_full = _factor(eye - 0.50 * cfg.dt * self._diff)

    def _advect(self, hvals: np.ndarray) -> np.ndarray:
        # transposed, the fiber runs along the last axis for (n,) and (n, m) alike
        g, rows = self.grid, hvals.T
        return (self._moving * (-_diff1(rows * rows, g.spacing, g.periodic) - self._force_x)).T

    @_fields_too
    def step(self, H: np.ndarray) -> np.ndarray:
        dt = self.cfg.dt
        dif = self._diff @ H
        mid = _solve(self._lu_half, H + 0.5 * dt * self._advect(H) + 0.25 * dt * dif)
        return _solve(self._lu_full, H + dt * self._advect(mid) + 0.5 * dt * dif)


def _step_count(t_end: float, dt: float) -> int:
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError(f"t_end = {t_end} is not a whole number of dt = {dt} steps")
    return n


# march's block buffer holds at most _BLOCK_ROWS states and _BLOCK_DOUBLES values
_BLOCK_ROWS = 64
_BLOCK_DOUBLES = 2 ** 15


def march(step, state: np.ndarray, dt: float, t_end: float, record_every: int = 1,
          on_block=None, on_record=None):
    """The one time-marching loop: apply step to state (an array) until t_end.

    Steps run into a block buffer, one state per row, up to the next record
    step or a full buffer.  on_block(ts, block) then sees the block's times
    and states at once and returns None, or (row, error) for the first row
    its monitors reject.  on_record(t, state) runs for the initial state,
    every record_every steps and after the last step.  The first failure in
    step order is raised with its time.  Returns the final state.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    n_steps = _step_count(t_end, dt)
    state = np.asarray(state, dtype=float)
    buf = np.empty((max(1, min(_BLOCK_ROWS, _BLOCK_DOUBLES // state.size)), *state.shape))
    k, t = 0, 0.0
    try:
        if on_record is not None:
            on_record(t, state)
        while k < n_steps:
            rows = min(len(buf), record_every - k % record_every, n_steps - k)
            failure = None  # (row of the block, error)
            for j in range(rows):
                try:
                    state = buf[j] = step(state)
                except FolflowError as err:
                    failure, rows = (j, err), j
                    break
            if on_block is not None and rows:
                failure = on_block(np.arange(k + 1, k + rows + 1) * dt, buf[:rows]) or failure
            if failure is not None:
                t = (k + 1 + failure[0]) * dt
                raise failure[1]
            k += rows
            t = k * dt
            if on_record is not None and (k % record_every == 0 or k == n_steps):
                on_record(t, state)
    except FolflowError as err:
        raise type(err)(f"{err} (failure at t = {t:.6g})") from err
    return state
