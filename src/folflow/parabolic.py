"""Time steppers for linear heat-reaction and forced viscous Burgers equations.

Heat-reaction:   du/dt = nu * u_xx + V * u
Forced Burgers:  dH/dt = nu * H_xx - (H^2)_x - nu^2 * (forcing)_x

The default scheme is Crank-Nicolson (for Burgers an implicit-diffusion /
explicit-advection midpoint variant of the same order); an explicit Euler
scheme is available behind the usual diffusive CFL guard.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CflViolation, FolflowError, SolverSingular
from .fiber import FiberGrid, ScalarField, VectorAlongFiber, _diff1, _diff2


class Scheme(Enum):
    CRANK_NICOLSON = "crank_nicolson"
    EXPLICIT_EULER = "explicit_euler"


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


def _check_cfl(grid: FiberGrid, cfg: StepperConfig):
    limit = 0.5 * grid.spacing ** 2 / cfg.diffusivity
    if cfg.dt > limit * (1.0 + 1e-12):
        raise CflViolation(
            f"explicit step dt = {cfg.dt:g} exceeds the stability limit {limit:g}"
        )


def _periodic_laplacian(n: int, h: float) -> sp.csr_matrix:
    inv = 1.0 / (h * h)
    main = np.full(n, -2.0 * inv)
    off = np.full(n - 1, inv)
    lap = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    lap[0, n - 1] = inv
    lap[n - 1, 0] = inv
    return lap.tocsr()


def _interior_laplacian(n: int, h: float) -> sp.csr_matrix:
    # interior nodes 1..n-2 of an interval grid
    inv = 1.0 / (h * h)
    m = n - 2
    main = np.full(m, -2.0 * inv)
    off = np.full(m - 1, inv)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _factor(matrix: sp.spmatrix):
    try:
        lu = spla.splu(matrix.tocsc())
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


class HeatStepper:
    """Prefactored stepper for du/dt = nu*u_xx + V*u on a fixed grid.

    Crank-Nicolson factorizations are built once, so repeated steps cost a
    pair of triangular solves.
    """

    def __init__(self, grid: FiberGrid, V: ScalarField | None, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if V is not None and V.grid != grid:
            raise ValueError("reaction coefficient lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        self.vvals = None if V is None else V.values
        n, h, nu = grid.n_points, grid.spacing, cfg.diffusivity
        if grid.periodic:
            a_op = nu * _periodic_laplacian(n, h)
            if V is not None:
                a_op = a_op + sp.diags(V.values)
            self._source = None
        else:
            bnd = cfg.boundary
            a_op = nu * _interior_laplacian(n, h)
            if V is not None:
                a_op = a_op + sp.diags(V.values[1:-1])
            src = np.zeros(n - 2)
            src[0] = nu * bnd.left / h ** 2
            src[-1] = nu * bnd.right / h ** 2
            self._source = src
        self._a_op = a_op.tocsr()
        if cfg.scheme is Scheme.CRANK_NICOLSON:
            c = 0.5 * cfg.dt
            eye = sp.identity(a_op.shape[0], format="csr")
            self._plus = (eye + c * self._a_op).tocsr()
            self._lu = _factor(eye - c * self._a_op)
        else:
            _check_cfl(grid, cfg)

    def _check_matches_boundary(self, u: ScalarField):
        bnd = self.cfg.boundary
        scale = 1.0 + float(np.max(np.abs(u.values)))
        if abs(u.values[0] - bnd.left) > 1e-9 * scale or abs(u.values[-1] - bnd.right) > 1e-9 * scale:
            raise ValueError("field does not match the Dirichlet boundary values")

    def step(self, u: ScalarField) -> ScalarField:
        if u.grid != self.grid:
            raise ValueError("field lives on a different grid")
        dt = self.cfg.dt
        if self.grid.periodic:
            if self.cfg.scheme is Scheme.CRANK_NICOLSON:
                new = _solve(self._lu, self._plus @ u.values)
            else:
                new = u.values + dt * (self._a_op @ u.values)
            return ScalarField(self.grid, new)
        self._check_matches_boundary(u)
        w = u.values[1:-1]
        if self.cfg.scheme is Scheme.CRANK_NICOLSON:
            rhs = self._plus @ w + dt * self._source
            w_new = _solve(self._lu, rhs)
        else:
            w_new = w + dt * (self._a_op @ w + self._source)
        new = u.values.copy()
        new[1:-1] = w_new
        return ScalarField(self.grid, new)


class BurgersStepper:
    """Prefactored stepper for dH/dt = nu*H_xx - (H^2)_x - nu^2*(forcing)_x.

    Diffusion is treated by Crank-Nicolson, advection and forcing by an
    explicit midpoint stage, giving a second-order step without history.
    """

    def __init__(self, grid: FiberGrid, forcing: ScalarField | None, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if forcing is not None and forcing.grid != grid:
            raise ValueError("forcing lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        n, h, nu = grid.n_points, grid.spacing, cfg.diffusivity
        if forcing is None:
            self._force_x = np.zeros(n)
        else:
            self._force_x = nu * nu * _diff1(forcing.values, h, grid.periodic)
        if grid.periodic:
            diff = nu * _periodic_laplacian(n, h)
        else:
            diff = nu * _interior_laplacian(n, h)
        self._diff = diff.tocsr()
        if cfg.scheme is Scheme.CRANK_NICOLSON:
            eye = sp.identity(diff.shape[0], format="csr")
            self._lu_half = _factor(eye - 0.25 * cfg.dt * self._diff)
            self._lu_full = _factor(eye - 0.50 * cfg.dt * self._diff)
        else:
            _check_cfl(grid, cfg)

    def _advect(self, hvals: np.ndarray) -> np.ndarray:
        g = self.grid
        return -_diff1(hvals * hvals, g.spacing, g.periodic) - self._force_x

    def step(self, H: VectorAlongFiber) -> VectorAlongFiber:
        if H.grid != self.grid:
            raise ValueError("field lives on a different grid")
        dt, g = self.cfg.dt, self.grid
        vals = H.values
        if self.cfg.scheme is Scheme.EXPLICIT_EULER:
            lap = _diff2(vals, g.spacing, g.periodic)
            new = vals + dt * (self.cfg.diffusivity * lap + self._advect(vals))
            if not g.periodic:
                new[0], new[-1] = vals[0], vals[-1]
            return VectorAlongFiber(g, new)
        if g.periodic:
            adv = self._advect(vals)
            dif = self._diff @ vals
            mid = _solve(self._lu_half, vals + 0.5 * dt * adv + 0.25 * dt * dif)
            new = _solve(self._lu_full, vals + dt * self._advect(mid) + 0.5 * dt * dif)
            return VectorAlongFiber(g, new)
        # interval: endpoint values are held fixed and feed the interior solve
        h = g.spacing
        src = np.zeros(g.n_points - 2)
        src[0] = self.cfg.diffusivity * vals[0] / h ** 2
        src[-1] = self.cfg.diffusivity * vals[-1] / h ** 2
        w = vals[1:-1]
        adv = self._advect(vals)[1:-1]
        dif = self._diff @ w + src
        mid_w = _solve(self._lu_half, w + 0.5 * dt * adv + 0.25 * dt * dif + 0.25 * dt * src)
        mid = vals.copy()
        mid[1:-1] = mid_w
        new_w = _solve(
            self._lu_full,
            w + dt * self._advect(mid)[1:-1] + 0.5 * dt * dif + 0.5 * dt * src,
        )
        new = vals.copy()
        new[1:-1] = new_w
        return VectorAlongFiber(g, new)


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
