"""Time steppers for linear heat-reaction and forced viscous Burgers equations.

Heat-reaction:   du/dt = nu * u_xx + V * u
Forced Burgers:  dH/dt = nu * H_xx - (H^2)_x - nu^2 * (forcing)_x

Both are Crank-Nicolson, Burgers with an explicit midpoint stage for advection
and forcing (IMEX).  Each implicit matrix I - c*(nu*Lap + V) is symmetric
tridiagonal and must be positive definite, c*max(V) < 1: LAPACK dpttrf factors
it once, prescaled so that a step multiplies by no scalar (heat divides it by
2c*nu/h^2 and solves against the bare stencil, Burgers by 2c), and dpttrs
solves for the increment d of each step u + d, zero at an interval's held ends,
with Sherman-Morrison for a circle's corners.  Fields run along the last axis:
values are (n,), or (m, n) with a field per row.  A step maps a field to a
field of the same type and values to new values, checked finite; or it writes
values into a given out array, allocating nothing and checking nothing.  Each
call steps one field of n values in work vectors allocated with the stepper;
a block steps row by row through the same call.  march drives every stepper
by one protocol: start(state) checks the initial state once, and fill(ks,
out) writes steps ks into a block's rows, which march checks finite at once.
A stepper fills by stepping from its last row.  Without a reaction the heat step
is diagonal in a Fourier basis, rfft on a circle and DST-I on an interval:
heat_symbol is its symbol, and a HeatSeries fills from it in closed form.
"""
from __future__ import annotations

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

    def misses(self, vals: np.ndarray) -> bool:
        """Whether an end of vals, (n,) or (m, n) by row, is off by over 1e-9 * (1 + max|row|)."""
        tol = 1e-9 * (1.0 + np.max(np.abs(vals), axis=-1))
        return bool(np.any(np.abs(vals[..., 0] - self.left) > tol)
                    or np.any(np.abs(vals[..., -1] - self.right) > tol))


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


_NOT_DEFINITE = "implicit step matrix is not positive definite: dt is too large for the potential"
_OUT_OF_RANGE = "implicit step matrix is out of floating-point range"
_NON_FINITE = "implicit step produced non-finite values"
# numpy scales an array by a 0-d array faster than by a Python float
_MINUS_TWO = np.array(-2.0)


class _Tridiagonal:
    """A = nu*Lap + diag(V) on the nodes that move in units of `unit`, nu/h^2
    if bare, else 1, and M = (I - c*A)/(2c*unit) factored once by LAPACK
    dpttrf.  A step solves M d = rhs by dpttrs in the work vector rhs, one
    field of n values allocated here: d = (I - c*A)^-1 2c A u when rhs = A
    u/unit, with no multiply by unit or 2c.  An interval's held ends are
    decoupled rows of M where rhs stays zero, so u + d holds them bit for
    bit.  On a circle, Sherman-Morrison (Numerical Recipes 2.7, gamma =
    -diag[0]) takes out the corners: M = T + w*w^T/gamma, T tridiagonal, w
    nonzero at the ends, so d = T^-1 rhs - (w0*d_0 + w1*d_{n-1})*z."""

    def __init__(self, grid: FiberGrid, nu: float, V: ScalarField | None, c: float, bare: bool):
        self.periodic = grid.periodic
        moving = slice(None) if self.periodic else slice(1, -1)
        with np.errstate(all="ignore"):
            inv = np.float64(nu) / (grid.spacing * grid.spacing)
            unit = inv if bare else np.float64(1.0)
            scale = 2.0 * c * unit
            diag = np.full(grid.n_points, 1.0 + 2.0 * c * inv)
            diag -= 0.0 if V is None else c * V.values
            diag /= scale
            off, c_inv = -c * inv / scale, c * inv
            self.V = None if V is None else V.values[moving] / unit
        if not self.periodic:
            diag[[0, -1]] = 1.0
        if not (np.isfinite(diag).all() and np.isfinite(off)
                and (self.V is None or np.isfinite(self.V).all())):
            raise SolverSingular(f"{_OUT_OF_RANGE} (c*nu/h^2 = {c_inv:.3g})")
        e = np.full(grid.n_points - 1, off)
        if self.periodic:
            if diag[0] <= 0.0:
                raise SolverSingular(f"{_NOT_DEFINITE} (diagonal {diag[0] * scale:.3g})")
            gamma = -diag[0]
            diag[0], diag[-1] = diag[0] - gamma, diag[-1] - off * off / gamma
        else:
            e[[0, -1]] = 0.0
        self.d, self.e, info = dpttrf(diag, e)
        # the pivots of I - c*A at the moving nodes
        pivots = self.d[moving] * scale
        if info != 0 or np.min(pivots) <= 1e-12 * np.max(pivots):
            raise SolverSingular(f"{_NOT_DEFINITE} (smallest pivot {np.min(pivots):.3g}, "
                                 f"largest {np.max(pivots):.3g})")
        if self.periodic:
            self.z = dpttrs(self.d, self.e, np.r_[gamma, np.zeros(len(diag) - 2), off])[0]
            dot = self.z[0] + (off / gamma) * self.z[-1]
            if not 1.0 + dot > 1e-12 * abs(dot):
                raise SolverSingular(f"{_NOT_DEFINITE} (Sherman-Morrison denominator {1 + dot:.3g})")
            self.w0, self.w1 = np.float64(1.0 / (1.0 + dot)), np.float64((off / gamma) / (1.0 + dot))
        self.inv = None if bare else np.array(inv)
        self.rhs = r = np.zeros(grid.n_points)
        self.live, self.inner = r[moving], r[1:-1]
        self.head, self.tail = r[:-1], r[1:]
        self.tmp = np.empty_like(self.live)


class _Stepper:
    """What every stepper shares: the checks on its inputs, a step without
    out or of a block, and march's start and fill, which fills by stepping."""

    skips = False  # whether fill may be given the record steps alone

    def __init__(self, grid: FiberGrid, cfg: StepperConfig, coefficient, name: str):
        if grid.periodic != isinstance(cfg.boundary, Periodic):
            raise ValueError("Dirichlet boundary on a circle fiber" if grid.periodic else
                             "interval fiber needs Dirichlet boundary data")
        if coefficient is not None and coefficient.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
        self.grid, self.cfg = grid, cfg

    def _check(self, vals: np.ndarray):
        """Raise if values may not be stepped."""

    def _fits(self, vals: np.ndarray):
        """Raise unless the last axis of vals is the grid's, before any solve."""
        n = self.grid.n_points
        if vals.shape[-1:] != (n,):
            raise ValueError(f"values of shape {vals.shape} do not have the grid's {n} points "
                             "along the last axis")

    def start(self, state: np.ndarray):
        """Take state, (n,) or (m, n), as step 0, checked once."""
        self._check(state)
        self._last = state

    def fill(self, ks: np.ndarray, out: np.ndarray):
        """out[i] = step ks[i], the steps after the last filled, one by one."""
        u = self._last
        for row in out:
            u = self.step(u, row)
        self._last = u

    def _rows(self, u, out):
        """A step of values, (m, n), into out row by row through step; or,
        without out, a step of u into a new array, checked finite, or into a
        new field of u's type."""
        if out is not None:
            for row, into in zip(u, out):
                self.step(row, into)
            return out
        if isinstance(u, _GridFunction):
            if u.grid != self.grid:
                raise ValueError("field lives on a different grid")
            return type(u)(self.grid, self._rows(u.values, None))
        u = np.asarray(u, dtype=float)
        self._check(u)
        new = self.step(u, np.empty(u.shape))
        if not np.isfinite(new).all():
            raise SolverSingular(_NON_FINITE)
        return new


class HeatStepper(_Stepper):
    """Prefactored stepper for du/dt = nu*u_xx + V*u on a fixed grid; on an
    interval every step returns the end values it was given, bit for bit."""

    def __init__(self, grid: FiberGrid, V: ScalarField | None, cfg: StepperConfig):
        super().__init__(grid, cfg, V, "reaction coefficient")
        self._op = _Tridiagonal(grid, cfg.diffusivity, V, 0.5 * cfg.dt, bare=True)

    def _check(self, vals: np.ndarray):
        self._fits(vals)
        bnd = self.cfg.boundary
        if isinstance(bnd, Dirichlet) and bnd.misses(vals):
            raise ValueError("field does not match the Dirichlet boundary values")

    def step(self, u, out: np.ndarray | None = None):
        """One step of u: values, (n,) or (m, n) with a field per row stepped
        row by row, or a field.  With out, the values step into out (which may
        be u) unchecked, as fill steps them.  Without, a new array or field is
        returned, u's length and ends checked and the result checked finite."""
        if out is None or u.ndim != 1:
            return self._rows(u, out)
        # u_new = (I - cA)^-1 (I + cA) u = u + d with (I - cA) d = 2c A u
        op = self._op
        r = op.rhs
        if op.periodic:
            np.multiply(u, _MINUS_TWO, r)
            np.add(op.head, u[1:], op.head)
            r[-1] += u[0]
            np.add(op.tail, u[:-1], op.tail)
            r[0] += u[-1]
            if op.V is not None:
                np.add(r, np.multiply(op.V, u, op.tmp), r)
            dpttrs(op.d, op.e, r, 1)
            np.subtract(r, np.multiply(op.z, op.w0 * r[0] + op.w1 * r[-1], op.tmp), r)
        else:
            m = op.live
            np.multiply(u[1:-1], _MINUS_TWO, m)
            np.add(m, u[2:], m)
            np.add(m, u[:-2], m)
            if op.V is not None:
                np.add(m, np.multiply(op.V, u[1:-1], op.tmp), m)
            dpttrs(op.d, op.e, r, 1)
        return np.add(u, r, out)


class BurgersStepper(_Stepper):
    """Prefactored stepper for dH/dt = nu*H_xx - (H^2)_x - nu^2*(forcing)_x.

    Diffusion is treated by Crank-Nicolson, advection and forcing by an explicit
    midpoint stage: second order without history.  Interval ends are held."""

    _check = _Stepper._fits

    def __init__(self, grid: FiberGrid, forcing: ScalarField, cfg: StepperConfig):
        super().__init__(grid, cfg, forcing, "forcing")
        nu = cfg.diffusivity
        # each solve's matrix carries its 2c, dt/2 and dt; they refuse an
        # out-of-range nu before nu^2 is formed
        self._half = _Tridiagonal(grid, nu, None, 0.25 * cfg.dt, bare=False)
        self._full = _Tridiagonal(grid, nu, None, 0.50 * cfg.dt, bare=False)
        force_x = nu * nu * _diff1(forcing.values, grid.spacing, grid.periodic)
        self._force_x = force_x if grid.periodic else force_x[1:-1]
        # dividing by -2h negates _diff1's quotient by 2h exactly
        self._minus_2h = np.array(-2.0 * grid.spacing)
        self._mid = mid = np.empty(grid.n_points)
        self._hi, self._lo = mid[2:], mid[:-2]

    def step(self, H, out: np.ndarray | None = None):
        """One step of H, as HeatStepper.step, without an end check."""
        if out is None or H.ndim != 1:
            return self._rows(H, out)
        # delta form of mid = M_half^-1 (H + dt/2 N(H) + dt/4 D H) and
        # H_new = M_full^-1 (H + dt N(mid) + dt/2 D H), M = I - c*D: D H waits
        # in the full solve's rhs.  Each pass squares its state into mid and
        # puts N = -(h^2)_x - nu^2*forcing_x, by _diff1's stencil, in the half
        # solve's rhs
        half, full, mid = self._half, self._full, self._mid
        dif, adv = full.live, half.live
        if full.periodic:
            np.multiply(H, _MINUS_TWO, dif)
            np.add(full.head, H[1:], full.head)
            dif[-1] += H[0]
            np.add(full.tail, H[:-1], full.tail)
            dif[0] += H[-1]
        else:
            np.multiply(H[1:-1], _MINUS_TWO, dif)
            np.add(dif, H[2:], dif)
            np.add(dif, H[:-2], dif)
        np.multiply(dif, full.inv, dif)
        for op, h, into in ((half, H, mid), (full, mid, out)):
            np.multiply(h, h, mid)
            np.subtract(self._hi, self._lo, half.inner)
            if op.periodic:
                adv[0] = mid[1] - mid[-1]
                adv[-1] = mid[0] - mid[-2]
            np.divide(adv, self._minus_2h, adv)
            np.subtract(adv, self._force_x, adv)
            r = op.rhs
            np.add(adv, dif, op.live)
            dpttrs(op.d, op.e, r, 1)
            if op.periodic:
                np.subtract(r, np.multiply(op.z, op.w0 * r[0] + op.w1 * r[-1], op.tmp), r)
            np.add(H, r, into)
        return out


def heat_symbol(grid: FiberGrid, cfg: StepperConfig) -> np.ndarray:
    """HeatStepper's step without a reaction on HeatSeries' bins j: g_j =
    (1 - c*lam_j)/(1 + c*lam_j), c = dt/2, lam_j = (4nu/h^2) sin^2(pi j/N),
    prescaled by 1/(2c*nu/h^2) as HeatStepper's matrix is; on a circle the
    rfft bins 0..n/2, N = n, so g_0 is exactly 1, on an interval the sine
    bins 1..n-2, N = 2(n-1).  It refuses what HeatStepper refuses, before
    anything overflows: a boundary of the other topology, and a c*nu/h^2
    out of float range, or zero."""
    _Stepper(grid, cfg, None, "")
    with np.errstate(all="ignore"):
        inv = np.float64(cfg.diffusivity) / (grid.spacing * grid.spacing)
        c_inv, unit = 0.5 * cfg.dt * inv, 1.0 / (cfg.dt * inv)
    if not 0.0 < unit < np.inf:
        raise SolverSingular(f"{_OUT_OF_RANGE} (c*nu/h^2 = {c_inv:.3g})")
    n = grid.n_points
    bins, N = (np.arange(n // 2 + 1), n) if grid.periodic else (np.arange(1, n - 1), 2 * (n - 1))
    half = 2.0 * np.sin(np.pi / N * bins) ** 2
    return (unit - half) / (unit + half)


class HeatSeries(_Stepper):
    """HeatStepper's steps without a reaction in closed form, from one state:
    step k is the inverse transform of symbol**k (heat_symbol) times the
    state's transform along the last axis: rfft on a circle, on an interval
    DST-I of the interior less the line through the ends, which stay as the
    state has them, checked against the Dirichlet data as HeatStepper checks
    them.  symbol**(S*q + r) is symbol**r, a row of products built once,
    times symbol**(S*q), built into the transform once per quotient q by
    np.power with an exponent per element: no step depends on the others."""

    S = 64
    skips = True
    _check = HeatStepper._check

    def __init__(self, grid: FiberGrid, cfg: StepperConfig):
        super().__init__(grid, cfg, None, "")
        self.symbol = symbol = heat_symbol(grid, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            self._table = np.cumprod([np.ones_like(symbol), *[symbol] * (self.S - 1)], axis=0)

    def start(self, state: np.ndarray):
        """Take state, (n,) or (m, n), as step 0, checked once."""
        self._check(state)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.grid.periodic:
                self._coef = np.fft.rfft(state)
            else:
                from scipy import fft  # imported by the runs that need it, not at start-up
                self._fft, self._ends = fft, state[..., [0, -1]]
                self._line = np.linspace(state[..., 0], state[..., -1], state.shape[-1],
                                         axis=-1)[..., 1:-1]
                self._coef = fft.dst(state[..., 1:-1] - self._line, type=1)
        self._rows, self._lead = self._table.reshape(self.S, *(1,) * (state.ndim - 1), -1), {}

    def fill(self, ks: np.ndarray, out: np.ndarray):
        """out[i] = step ks[i] of the state, ks increasing."""
        quot, rem = np.divmod(ks, self.S)
        coef, lead, lo = np.empty((len(ks), *self._coef.shape), self._coef.dtype), {}, 0
        quotients = list(dict.fromkeys(quot.tolist()))
        for q, hi in zip(quotients, np.searchsorted(quot, quotients, "right").tolist()):
            lead[q] = (self._lead[q] if q in self._lead else
                       np.power(self.symbol, np.full_like(self.symbol, self.S * q)) * self._coef)
            np.multiply(self._rows[rem[lo:hi]], lead[q], coef[lo:hi])
            lo = hi
        self._lead = lead
        if self.grid.periodic:
            out[...] = np.fft.irfft(coef, out.shape[-1])
        else:
            np.add(self._fft.idst(coef, type=1, overwrite_x=True), self._line, out[..., 1:-1])
            out[..., [0, -1]] = self._ends


def record_steps(dt: float, t_end: float, record_every: int) -> np.ndarray:
    """The steps after which march records: 0, every record_every steps, the
    last; t_end is 0 or 1 to 2**53 whole steps, the counts a float holds exactly."""
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if not t_end / dt <= 2 ** 53:
        raise ValueError(f"t_end = {t_end} is more than 2**53 steps of dt = {dt}")
    n = int(round(t_end / dt))
    if n == 0 < t_end or abs(n * dt - t_end) > 1e-9 * max(dt, t_end):
        raise ValueError(f"t_end = {t_end} is not a whole number of dt = {dt} steps")
    return np.r_[np.arange(0, n, record_every), n]


# march's block buffer holds as many states as fit in _BLOCK_DOUBLES values,
# at least one and at most the run's steps to fill (163 states of 201 nodes);
# on_record takes at most _RECORD_CHUNK of a block's records a call, so the
# record hooks' temporaries do not grow with the block
_BLOCK_DOUBLES = 2 ** 15
_RECORD_CHUNK = 64


def march(stepper, state: np.ndarray, dt: float, steps: np.ndarray, on_block=None,
          on_record=None):
    """The one time-marching loop: step state, (n,) or (m, n) with a field per
    row, through steps, the record schedule of record_steps.  The first block
    is state itself, one row at step 0.  stepper.start(state) checks it, and
    stepper.fill(ks, out) writes the states after steps ks into out's rows, a
    block buffer of one state per row, until it is full or the run ends.  A
    stepper that skips fills the record steps alone if there is no on_block.
    A filled block's rows are checked finite at once: the first non-finite one
    fails the run at its step.  on_block(ts, block) sees each block's times
    and states before a failed row and returns None, or (row, error) for the
    first row its monitors reject.  on_record(ts, block, rows) sees the same
    block and the rows to record before the first rejected row, at most
    _RECORD_CHUNK of them a call, in increasing order across calls.  It
    returns None, or (i, error) for the first of those rows it rejects,
    which ends the block's records.  numpy's
    overflow, invalid and divide warnings are off while a block fills and
    its hooks run.  The first failure in step order is raised with its time.
    Returns the final state.
    """
    state = np.asarray(state, dtype=float)
    # the steps to fill: every one, or the records if the stepper may skip
    # and no on_block needs the others
    only_records = stepper.skips and on_block is None
    total = len(steps) - 1 if only_records else int(steps[-1])
    buf = np.empty((max(1, min(_BLOCK_DOUBLES // state.size, total)), *state.shape))
    stepper.start(state)
    done, t = 0, 0.0
    ks, block, failure = steps[:1], state[None], None
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while True:
                rows = len(block) if failure is None else failure[0]
                ts = ks[:rows] * dt
                if on_block is not None and rows:
                    failure = on_block(ts, block[:rows]) or failure
                end = ks[rows - 1] + 1 if failure is None else ks[failure[0]]
                recorded = steps[steps.searchsorted(ks[0]):steps.searchsorted(end)]
                if on_record is not None and len(recorded):
                    recorded = np.searchsorted(ks, recorded)
                    for lo in range(0, len(recorded), _RECORD_CHUNK):
                        chunk = recorded[lo:lo + _RECORD_CHUNK]
                        bad = on_record(ts, block[:rows], chunk)
                        if bad:
                            failure = int(chunk[bad[0]]), bad[1]
                            break
                if failure is not None:
                    t = ks[failure[0]] * dt
                    raise failure[1]
                t = ks[-1] * dt
                if done == total:
                    return block[-1]
                stop = min(done + len(buf), total)
                ks = steps[done + 1:stop + 1] if only_records else np.arange(done + 1, stop + 1)
                block, done = buf[:len(ks)], stop
                stepper.fill(ks, block)
                finite = np.isfinite(block.reshape(len(ks), state.size)).all(axis=1)
                if not finite.all():
                    failure = int(np.argmin(finite)), SolverSingular(_NON_FINITE)
    except FolflowError as err:
        raise type(err)(f"{err} (failure at t = {t:.6g})") from err
