"""Time steppers for linear heat-reaction and forced viscous Burgers equations.

Heat-reaction:   du/dt = nu * u_xx + V * u
Forced Burgers:  dH/dt = nu * H_xx - (H^2)_x - nu^2 * (forcing)_x

Both steppers are built on the one fiber Laplacian, fiber.laplacian_matrix;
on an interval its zero end rows hold the end values fixed, so a step needs
no boundary source term.  Both are Crank-Nicolson: the heat step fully, the
Burgers step with implicit diffusion and an explicit midpoint stage for
advection and forcing (IMEX), of the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FolflowError, SolverSingular
from .fiber import FiberGrid, ScalarField, VectorAlongFiber, _diff1, laplacian_matrix


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
    if not np.all(np.isfinite(out)):
        raise SolverSingular("implicit step produced non-finite values")
    return out


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

    def _check_matches_boundary(self, u: ScalarField):
        bnd = self.cfg.boundary
        scale = 1.0 + float(np.max(np.abs(u.values)))
        if abs(u.values[0] - bnd.left) > 1e-9 * scale or abs(u.values[-1] - bnd.right) > 1e-9 * scale:
            raise ValueError("field does not match the Dirichlet boundary values")

    def step(self, u: ScalarField) -> ScalarField:
        if u.grid != self.grid:
            raise ValueError("field lives on a different grid")
        if isinstance(self.cfg.boundary, Dirichlet):
            self._check_matches_boundary(u)
        return ScalarField(self.grid, _solve(self._lu, self._plus @ u.values))


class BurgersStepper:
    """Prefactored stepper for dH/dt = nu*H_xx - (H^2)_x - nu^2*(forcing)_x.

    Diffusion is treated by Crank-Nicolson, advection and forcing by an
    explicit midpoint stage, giving a second-order step without history.
    On an interval the end values are held.
    """

    def __init__(self, grid: FiberGrid, forcing: ScalarField | None, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if forcing is not None and forcing.grid != grid:
            raise ValueError("forcing lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        nu = cfg.diffusivity
        self._moving = _moving(grid)
        if forcing is None:
            self._force_x = np.zeros(grid.n_points)
        else:
            self._force_x = nu * nu * _diff1(forcing.values, grid.spacing, grid.periodic)
        self._diff = nu * laplacian_matrix(grid)
        eye = sp.identity(grid.n_points, format="csr")
        self._lu_half = _factor(eye - 0.25 * cfg.dt * self._diff)
        self._lu_full = _factor(eye - 0.50 * cfg.dt * self._diff)

    def _advect(self, hvals: np.ndarray) -> np.ndarray:
        g = self.grid
        return self._moving * (-_diff1(hvals * hvals, g.spacing, g.periodic) - self._force_x)

    def step(self, H: VectorAlongFiber) -> VectorAlongFiber:
        if H.grid != self.grid:
            raise ValueError("field lives on a different grid")
        dt, vals = self.cfg.dt, H.values
        dif = self._diff @ vals
        mid = _solve(self._lu_half, vals + 0.5 * dt * self._advect(vals) + 0.25 * dt * dif)
        new = _solve(self._lu_full, vals + dt * self._advect(mid) + 0.5 * dt * dif)
        return VectorAlongFiber(self.grid, new)


def _step_count(t_end: float, dt: float) -> int:
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError(f"t_end = {t_end} is not a whole number of dt = {dt} steps")
    return n


def march(step, state, dt: float, t_end: float, record_every: int = 1,
          on_step=None, on_record=None):
    """The one time-marching loop: apply step to state until t_end.

    The state is opaque to the loop (a field, a list of slices, a pair).
    on_step(t, state) runs after every step; on_record(t, state) runs for
    the initial state, every record_every steps and after the last step.
    A FolflowError raised by a step or a hook is re-raised with the time of
    the failure.  Returns the final state.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    n_steps = _step_count(t_end, dt)
    t = 0.0
    try:
        if on_record is not None:
            on_record(t, state)
        for k in range(1, n_steps + 1):
            t = k * dt
            state = step(state)
            if on_step is not None:
                on_step(t, state)
            if on_record is not None and (k % record_every == 0 or k == n_steps):
                on_record(t, state)
    except FolflowError as err:
        raise type(err)(f"{err} (failure at t = {t:.6g})") from err
    return state
