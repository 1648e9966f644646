"""Time steppers for linear heat-reaction and forced viscous Burgers equations.

Heat-reaction:   du/dt = nu * u_xx + V * u
Forced Burgers:  dH/dt = nu * H_xx - (H^2)_x - nu^2 * (forcing)_x

Both are Crank-Nicolson, Burgers with an explicit midpoint stage for advection
and forcing (IMEX).  Each implicit matrix I - c*(nu*Lap + V) is symmetric
tridiagonal and must be positive definite, c*max(V) < 1: LAPACK dpttrf factors
it once and dpttrs solves for the increment d of each step u + d, with
Sherman-Morrison for a circle's corners.  A step maps a field to a field of
the same type, and values to values: (n,), or (n, m) with a field per column.
"""
from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import FolflowError, SolverSingular
from .fiber import FiberGrid, ScalarField, _diff1, _GridFunction


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


_NOT_DEFINITE = "implicit step matrix is not positive definite: dt is too large for the potential"


class _Tridiagonal:
    """A = nu*Lap + diag(V) on the nodes that move, and I - c*A factored once by
    LAPACK dpttrf.  advance() steps in delta form, u + d with (I - c*A) d = rhs
    solved by dpttrs, d zero at an interval's held ends.  On a circle,
    Sherman-Morrison (Numerical Recipes 2.7, gamma = -diag[0]) takes out the
    corners: I - c*A = T + w*w^T/gamma, T tridiagonal, w nonzero at the ends.
    Fields run along axis 0: (n,), or (n, m) with each column solved alone."""

    def __init__(self, grid: FiberGrid, nu: float, V: ScalarField | None, c: float):
        self.periodic = grid.periodic
        self._inv = nu / (grid.spacing * grid.spacing)
        self._V = None if V is None else V.values if self.periodic else V.values[1:-1]
        diag = np.full(grid.n_points - 2 * (not self.periodic), 1.0 + 2.0 * c * self._inv)
        diag -= 0.0 if self._V is None else c * self._V
        off = -c * self._inv
        if self.periodic:
            if diag[0] <= 0.0:
                raise SolverSingular(f"{_NOT_DEFINITE} (diagonal {diag[0]:.3g})")
            gamma = -diag[0]
            diag[0], diag[-1] = diag[0] - gamma, diag[-1] - off * off / gamma
        self._d, self._e, info = dpttrf(diag, np.full(len(diag) - 1, off))
        if info != 0 or np.min(self._d) <= 1e-12 * np.max(self._d):
            raise SolverSingular(f"{_NOT_DEFINITE} (smallest pivot {np.min(self._d):.3g}, "
                                 f"largest {np.max(self._d):.3g})")
        if self.periodic:
            self._z = dpttrs(self._d, self._e, np.r_[gamma, np.zeros(len(diag) - 2), off])[0]
            dot = self._z[0] + (off / gamma) * self._z[-1]
            if not 1.0 + dot > 1e-12 * abs(dot):
                raise SolverSingular(f"{_NOT_DEFINITE} (Sherman-Morrison denominator {1 + dot:.3g})")
            self._w0, self._w1 = 1.0 / (1.0 + dot), (off / gamma) / (1.0 + dot)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u at the moving nodes, u[1:-1] once a circle is closed by its neighbours."""
        if self.periodic:
            u = np.concatenate((u[-1:], u, u[:1]))
        au = -2.0 * u[1:-1]
        au += u[2:]
        au += u[:-2]
        au *= self._inv
        if self._V is not None:
            au += (self._V * u[1:-1].T).T
        return au

    def advance(self, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """u + d, where (I - c*A) d = rhs at the moving nodes."""
        d = dpttrs(self._d, self._e, rhs)[0]
        if self.periodic:
            # reduce by w's two entries, not a dot product down the column, so a block
            # solves exactly as its columns do; the outer product is laid out as d is
            d -= np.multiply.outer(self._w0 * d[0] + self._w1 * d[-1], self._z).T
            new = u + d
        else:
            new = u.copy()
            new[1:-1] += d
        if not np.isfinite(new).all():
            raise SolverSingular("implicit step produced non-finite values")
        return new


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


class HeatStepper:
    """Prefactored stepper for du/dt = nu*u_xx + V*u on a fixed grid; on an
    interval every step returns the end values it was given, bit for bit."""

    def __init__(self, grid: FiberGrid, V: ScalarField | None, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if V is not None and V.grid != grid:
            raise ValueError("reaction coefficient lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        self._op = _Tridiagonal(grid, cfg.diffusivity, V, 0.5 * cfg.dt)

    def _check_matches_boundary(self, vals: np.ndarray):
        bnd = self.cfg.boundary
        left, right = vals[0], vals[-1]
        # the ends of a marched field match exactly: the step holds them
        if vals.ndim == 1 and left == bnd.left and right == bnd.right:
            return
        tol = 1e-9 * (1.0 + np.max(np.abs(vals), axis=0))
        if np.any(np.abs(left - bnd.left) > tol) or np.any(np.abs(right - bnd.right) > tol):
            raise ValueError("field does not match the Dirichlet boundary values")

    @_fields_too
    def step(self, u: np.ndarray) -> np.ndarray:
        if isinstance(self.cfg.boundary, Dirichlet):
            self._check_matches_boundary(u)
        # u_new = (I - cA)^-1 (I + cA) u = u + d with (I - cA) d = 2c A u
        return self._op.advance(u, self.cfg.dt * self._op.apply(u))


class BurgersStepper:
    """Prefactored stepper for dH/dt = nu*H_xx - (H^2)_x - nu^2*(forcing)_x.

    Diffusion is treated by Crank-Nicolson, advection and forcing by an explicit
    midpoint stage: second order without history.  Interval ends are held."""

    def __init__(self, grid: FiberGrid, forcing: ScalarField, cfg: StepperConfig):
        _check_boundary_topology(grid, cfg)
        if forcing.grid != grid:
            raise ValueError("forcing lives on a different grid")
        self.grid = grid
        self.cfg = cfg
        nu = cfg.diffusivity
        self._force_x = nu * nu * _diff1(forcing.values, grid.spacing, grid.periodic)
        self._half = _Tridiagonal(grid, nu, None, 0.25 * cfg.dt)
        self._full = _Tridiagonal(grid, nu, None, 0.50 * cfg.dt)

    def _advect(self, hvals: np.ndarray) -> np.ndarray:
        """-(H^2)_x - nu^2*forcing_x at the moving nodes."""
        # transposed, the fiber runs along the last axis for (n,) and (n, m) alike
        g, rows = self.grid, hvals.T
        adv = (-_diff1(rows * rows, g.spacing, g.periodic) - self._force_x).T
        return adv if g.periodic else adv[1:-1]

    @_fields_too
    def step(self, H: np.ndarray) -> np.ndarray:
        # delta form of mid = M_half^-1 (H + dt/2 N(H) + dt/4 D H) and
        # H_new = M_full^-1 (H + dt N(mid) + dt/2 D H), M = I - c*D
        dt = self.cfg.dt
        dif = self._half.apply(H)
        mid = self._half.advance(H, 0.5 * dt * (self._advect(H) + dif))
        return self._full.advance(H, dt * (self._advect(mid) + dif))


def record_steps(dt: float, t_end: float, record_every: int) -> np.ndarray:
    """The steps after which march records: 0, every record_every steps, the last."""
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError(f"t_end = {t_end} is not a whole number of dt = {dt} steps")
    return np.r_[np.arange(0, n, record_every), n]


# march's block buffer holds at most _BLOCK_ROWS states and _BLOCK_DOUBLES values
_BLOCK_ROWS = 64
_BLOCK_DOUBLES = 2 ** 15


def march(step, state: np.ndarray, dt: float, t_end: float, record_every: int = 1,
          on_block=None, on_record=None):
    """The one time-marching loop: apply step to state (an array) until t_end.

    Steps run into a block buffer, one state per row, until it is full or
    the run ends.  on_block(ts, block) then sees the block's times and
    states at once and returns None, or (row, error) for the first row its
    monitors reject.  on_record(ts, block, rows) sees the same block and the
    rows to record (record_steps), up to the first rejected row; the initial
    state comes as a block of one row, which on_block does not see.  It
    returns None, or (i, error) for the first of those records it rejects.
    The first failure in step order is raised with its time.  Returns the
    final state.
    """
    steps = record_steps(dt, t_end, record_every).tolist()
    n_steps = steps[-1]
    state = np.asarray(state, dtype=float)
    buf = np.empty((max(1, min(_BLOCK_ROWS, _BLOCK_DOUBLES // state.size)), *state.shape))
    k, t = 0, 0.0
    try:
        failure = on_record and on_record(np.zeros(1), state[None], np.zeros(1, dtype=int))
        if failure:
            raise failure[1]
        while k < n_steps:
            rows = min(len(buf), n_steps - k)
            failure = None  # (row of the block, error)
            for j in range(rows):
                try:
                    state = buf[j] = step(state)
                except FolflowError as err:
                    failure, rows = (j, err), j
                    break
            ts = np.arange(k + 1, k + rows + 1) * dt
            if on_block is not None and rows:
                failure = on_block(ts, buf[:rows]) or failure
            end = k + 1 + (rows if failure is None else failure[0])
            recorded = steps[bisect_left(steps, k + 1):bisect_left(steps, end)]
            if on_record is not None and recorded:
                recorded = np.subtract(recorded, k + 1)
                bad = on_record(ts, buf[:rows], recorded)
                failure = (int(recorded[bad[0]]), bad[1]) if bad else failure
            if failure is not None:
                t = (k + 1 + failure[0]) * dt
                raise failure[1]
            k += rows
            t = k * dt
    except FolflowError as err:
        raise type(err)(f"{err} (failure at t = {t:.6g})") from err
    return state
