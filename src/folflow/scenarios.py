"""The scenarios: flow drivers, and one declaration per runnable scenario.

The drivers hand parabolic.march a stepper, which steps, or for the twisted
product and a small surface fills its blocks in closed form (HeatSeries):

* run_surface_of_revolution: the profile radius obeys d(rho)/dt = rho_xx,
  and the induced curvatures k = -(log rho)_x, K = -rho_xx/rho are tracked
  together with the axial profile and the conformal metric factor.
* run_twisted_product: every base slice of the warping function obeys
  d(f)/dt = n * f_yy along its fiber; slices relax to their fiber means.
* run_normalized_flow: u obeys du/dt = n*(u_xx + betaD*u); the normalized
  curvature quantity Sc_mix - |T|^2 converges to n*lambda0, and |T|^2 is
  transported by its exponential integrating factor.
* cole_hopf_rows: a forced Burgers velocity against the transform of the
  heat-reaction solution it should equal.

Each of them takes its input fields, runs on the one grid they share, and
returns a Trajectory: per record, one row of monitors (a line of
trajectory.csv, stored by column) and one dict of field arrays (the
columns of a fields_<t>.csv), built by one record hook for all records of
a march block at once.  Given snapshot times, a driver keeps every row but
the field arrays of only the records nearest them and the last.

SCENARIOS maps each scenario name to its Scenario declaration, which the
config parser, `folflow list` and `folflow run` all read.  A declaration
lists the config keys its run reads; the parser accepts no other keys and
the summary echoes no other keys.
"""
from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from typing import Callable

import numpy as np

from . import colehopf
from .curvature import _conserved_quantity, _riccati_residual, sc_mix_minus_T2
from .errors import GapTooSmall, NonFiniteValue, NotConverged, ProfileDegenerate, refuse
from .families import build_field
from .fiber import (FiberGrid, ScalarField, VectorAlongFiber, _diff1, _diff2, _grad_log,
                    build_grid, grad_log, integrate)
from .parabolic import (PERIODIC, BurgersStepper, Dirichlet, HeatSeries, HeatStepper,
                        StepperConfig, _Stepper, march, record_steps)
from .schrodinger import (GroundState, eigencount, ground_state, lowest_eigenvalue,
                          operator_rules, spectrum, spectrum_rules, weyl_theta)

SLOPE_TOL = 1e-8
# the defaults of time.record_every and the tolerances, for the parser and the drivers
RECORD_EVERY, GAP_MIN, EPS_T, CONVERGED_DEV = 10, 1e-6, 1e-8, 1e-5
# from this many nodes on, a surface marches.  Timed per step at n = 201 to
# 4097, BLAS on one thread, an interval's march is the cheaper side from
# about 700-769 nodes on and a circle's not below 4097; the cuts stay as
# first set, since moving one changes which arithmetic runs a surface
SERIES_POINTS = {"interval": 641, "circle": 3584}
MAX_RANDOM = 10_000  # spectral_report's random potentials: about 4.5 s at n = 1024


def nearest_records(times: np.ndarray, wanted) -> list[int]:
    """The records nearest the wanted times, by index into times, in order
    and once each."""
    return sorted({int(np.argmin(np.abs(times - t))) for t in wanted})


@dataclass
class Trajectory:
    """The records of a march of t_end in steps of dt, recording every
    record_every: steps is the record schedule (record_steps), series[key][i]
    is record i's value in trajectory.csv column key (its time for "t", set up
    front; nan until taken for the others), and fields[i] its field arrays by
    fields_<t>.csv column, kept for the records nearest the wanted snapshot
    times (snapshot_rows, all if wanted is None) and the last, else None."""

    grid: FiberGrid
    dt: InitVar[float]
    t_end: InitVar[float]
    record_every: InitVar[int]
    wanted: InitVar[tuple | None]
    steps: np.ndarray = field(init=False)
    snapshot_rows: list[int] = field(init=False)
    series: dict[str, np.ndarray] = field(init=False)
    fields: list[dict[str, np.ndarray] | None] = field(init=False, default_factory=list)

    def __post_init__(self, dt, t_end, record_every, wanted):
        self.steps = record_steps(dt, t_end, record_every)
        times = self.steps * dt
        self.snapshot_rows = (list(range(len(times))) if wanted is None else
                              nearest_records(times, wanted))
        self._kept = np.array(sorted({*self.snapshot_rows, len(times) - 1}))
        self.series = {"t": times}

    @property
    def snapshots(self) -> dict[float, dict[str, np.ndarray]]:
        """The snapshot records' field arrays by their time, in time order."""
        return {self.series["t"][i].item(): self.fields[i] for i in self.snapshot_rows}

    def extend(self, columns: dict[str, np.ndarray], fields: dict[str, np.ndarray],
               failure=None):
        """Append the next records: columns[key][i] is record i's value in each
        column but "t", and fields[name][i] its field array.  Record failure[0],
        if given, fails with failure[1], and so does the first record with a
        non-finite field or row value.  The first failure, (i, error), is
        returned, and then nothing is appended, since the run ends at it; else
        the records are, and None is returned.  A field given as a ScalarField
        is an input held fixed, checked finite when it was built: every kept
        record shares its read-only values.  The other fields the run keeps
        are copied and frozen, so a record shares no memory with the march."""
        n = len(next(iter(columns.values()))) if failure is None else failure[0]
        fields_ok = np.ones(n, dtype=bool)
        for vals in fields.values():
            if not isinstance(vals, ScalarField):
                fields_ok &= np.isfinite(vals[:n]).all(axis=tuple(range(1, np.ndim(vals))))
        ok = fields_ok & np.logical_and.reduce([np.isfinite(col[:n]) for col in columns.values()])
        if not ok.all():
            n = int(np.argmin(ok))
            bad = [key for key, col in columns.items() if not np.isfinite(col[n])]
            failure = n, NonFiniteValue("field values must be finite" if not fields_ok[n] else
                                        f"recorded value(s) {bad} not finite")
        if failure is not None:
            return failure
        first = len(self.fields)
        for key, col in columns.items():
            if key not in self.series:
                self.series[key] = np.full(len(self.series["t"]), np.nan)
            self.series[key][first:first + n] = col
        self.fields += [None] * n
        lo, hi = np.searchsorted(self._kept, (first, first + n))
        for i in self._kept[lo:hi].tolist():
            self.fields[i] = {name: vals.values if isinstance(vals, ScalarField)
                              else np.array(vals[i - first], dtype=float)
                              for name, vals in fields.items()}
            for owned in self.fields[i].values():
                owned.flags.writeable = False
        return None


def _shared_grid(*fields: ScalarField) -> FiberGrid:
    """The one grid all input fields live on."""
    grids = {f.grid for f in fields}
    if len(grids) != 1:
        raise ValueError("input fields live on different grids")
    return grids.pop()


# The closed flows' input rules, each stated once: the *_rules function beside
# a driver returns the rules its inputs break, which the driver raises as one
# ValueError (refuse) and its scenario's check prefixes with the scenario name.
def _circle(grid: FiberGrid) -> list[str]:
    return [] if grid.periodic else ["needs circle topology"]


def _positive(name: str, values) -> list[str]:
    return [f"{name} must be strictly positive"] if np.min(values) <= 0.0 else []


class _RunningIntegral:
    """The trapezoid integral along a march of a quantity known at each row,
    now at the last block's rows.  The first block is the initial state's,
    one row whose total is 0; a later row adds finish(before + its own),
    before being the quantity a row earlier.  _sums holds the total before
    the last block, then its rows' terms; a row's total is summed only when
    it is read, by np.add.reduce down axis 0 from the last total read, in
    step order."""

    def __init__(self, finish):
        self.now, self._finish = None, finish

    def add(self, now: np.ndarray):
        """The quantity at the rows of the next block."""
        sums = np.zeros((len(now) + 1, *now.shape[1:]))
        if self.now is not None:
            sums[0] = self.last()
            np.add(self.now[-1], now[0], sums[1])
            np.add(now[:-1], now[1:], sums[2:])
            self._finish(sums[1:])
        self._sums, self._read, self.now = sums, 0, now

    def at(self, rows: np.ndarray) -> np.ndarray:
        """The totals after the given increasing rows of the last block."""
        for r in (rows + 1).tolist():
            if r > self._read:
                self._sums[r] = np.add.reduce(self._sums[self._read:r + 1], axis=0)
                self._read = r
        return self._sums[rows + 1]

    def last(self) -> np.ndarray:
        """The total after the last row added."""
        return self.at(np.array([len(self._sums) - 2]))[0]


# ---------------------------------------------------------------------------
# surface of revolution


def _cumtrapz(vals: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(vals)
    out[..., 1:] = np.cumsum(0.5 * h * (vals[..., 1:] + vals[..., :-1]), axis=-1)
    return out


def _profile_failure(rho: np.ndarray, slope: np.ndarray):
    """The profile guard on a block of profiles, one per row: (row, error) for
    the first that pinched off or is too steep, or None."""
    low, high, least = np.min(rho, axis=-1), np.max(slope, axis=-1), np.min(slope, axis=-1)
    bad = np.flatnonzero((low <= 0.0) | (high > 1.0 + SLOPE_TOL) | (least < -1.0 - SLOPE_TOL))
    if bad.size == 0:
        return None
    j = int(bad[0])
    return j, ProfileDegenerate(
        f"profile pinched off (min rho = {low[j]:g})" if low[j] <= 0.0 else
        f"profile slope |rho_x| = {max(high[j], -least[j]):g} exceeds 1; "
        "the surface is no longer a graph over arclength")


@dataclass
class SurfaceTrajectory(Trajectory):
    """Records rho, h, k, K, conformal_factor; evolution_crosscheck is
    surface_evolution_crosscheck's result, reduced along the run, or None
    when fewer than three records were taken every record_every steps."""

    evolution_crosscheck: dict | None = None


def _series_pays(grid: FiberGrid) -> bool:
    """Below SERIES_POINTS, on an FFT length (n on a circle, 2(n-1) on an
    interval) with no prime factor above 13: one with a larger one, as
    2 * 199 for 200 nodes, can take several march steps' time."""
    size = grid.n_points if grid.periodic else 2 * (grid.n_points - 1)
    for p in (2, 3, 5, 7, 11, 13):
        while size % p == 0:
            size //= p
    return size == 1 and grid.n_points < SERIES_POINTS[grid.topology.value]


def run_surface_of_revolution(rho0: ScalarField, dt: float, t_end: float,
                              record_every: int = RECORD_EVERY,
                              snapshots=None) -> SurfaceTrajectory:
    """Evolve a revolution profile by d(rho)/dt = rho_xx and track curvatures.

    Interval profiles keep their endpoint radii fixed; circle profiles are
    closed tori.  The conformal factor (rho/rho0)^2 is cross-checked against
    exp(-2 * int_0^t K) accumulated along the run.
    """
    grid = rho0.grid
    boundary = PERIODIC if grid.periodic else Dirichlet(float(rho0.values[0]), float(rho0.values[-1]))
    cfg = StepperConfig(dt, 1.0, boundary=boundary)
    stepper = HeatSeries(grid, cfg) if _series_pays(grid) else HeatStepper(grid, None, cfg)
    h, periodic = grid.spacing, grid.periodic
    # int_0^t K along the run, whose now the record reads K from
    int_k_gauss = _RunningIntegral(lambda terms: np.multiply(terms, 0.5 * dt, terms))
    traj = SurfaceTrajectory(grid, dt, t_end, record_every, snapshots)

    def advance(ts, block):
        # the profile guard on every row, the initial one too, and K =
        # -rho_xx/rho, for the integral of K
        gauss = _diff2(block, h, periodic)
        int_k_gauss.add(np.negative(np.divide(gauss, block, gauss), gauss))
        return _profile_failure(block, _diff1(block, h, periodic))

    def record(ts, block, rows):
        # advance guarded every profile; h rebuilt from sqrt(1 - slope^2),
        # with the arclength constraint measured against that slope
        rho = block[rows]
        slope = _diff1(rho, h, periodic)
        # slope^2, then the arclength residual |slope^2 + h_slope^2 - 1| in its place
        arc = slope * slope
        h_slope = np.sqrt(np.maximum(1.0 - arc, 0.0))
        arc = np.max(np.abs(np.subtract(np.add(arc, h_slope ** 2, arc), 1.0, arc), arc), axis=-1)
        k = -slope / rho
        kk = int_k_gauss.now[rows]
        conf = (rho / rho0.values) ** 2
        first = len(traj.fields)
        failure = traj.extend({
            "sup_K": np.max(np.abs(kk), axis=-1),
            "sup_k": np.max(np.abs(k), axis=-1),
            "min_rho": np.min(rho, axis=-1),
            "arc_residual": arc,
            "riccati_res": _riccati_residual(k, kk, h, periodic),
            "conformal_dev": np.max(np.abs(np.exp(-2.0 * int_k_gauss.at(rows)) - conf), axis=-1),
        }, {"rho": rho, "h": _cumtrapz(h_slope, h), "k": k, "K": kk, "conformal_factor": conf})
        # the records taken every record_every steps, those before the off-grid last
        taken = slice(max(0, min(len(traj.fields), on_grid) - first))
        residuals.add(k[taken], kk[taken])
        return failure

    on_grid = int(np.count_nonzero(traj.steps % record_every == 0))
    residuals = _EvolutionResiduals(grid, record_every * dt)
    march(stepper, rho0.values, dt, traj.steps, advance, record)
    traj.evolution_crosscheck = residuals.result()
    return traj


def linear_interpolant(grid: FiberGrid, left: float, right: float) -> ScalarField:
    """Boundary-respecting straight-line profile, the interval steady state."""
    return ScalarField(grid, left + (right - left) * grid.x / grid.length)


class _EvolutionResiduals:
    """The running sup residuals of surface_evolution_crosscheck's identities
    over consecutive records dt_rec apart, fed a block of them at a time."""

    def __init__(self, grid: FiberGrid, dt_rec: float):
        self.grid, self.dt_rec, self.count = grid, dt_rec, 0
        # the last two records seen, the neighbours of the next centred ones
        self.k = self.kk = np.empty((0, grid.n_points))
        self.res_k = self.res_cap = 0.0

    def add(self, k: np.ndarray, kk: np.ndarray):
        g = self.grid
        self.count += len(k)
        k, kk = np.vstack([self.k, k]), np.vstack([self.kk, kk])
        self.k, self.kk = k[-2:].copy(), kk[-2:].copy()
        if len(k) < 3:
            return
        view = slice(None) if g.periodic else slice(3, -3)
        nk = _diff1(kk[1:-1], g.spacing, g.periodic)
        nnk = _diff1(nk, g.spacing, g.periodic)
        dk_dt = (k[2:] - k[:-2]) / (2.0 * self.dt_rec)
        dk_cap = (kk[2:] - kk[:-2]) / (2.0 * self.dt_rec)
        self.res_k = max(self.res_k, float(np.max(np.abs((dk_dt - nk)[:, view]))))
        self.res_cap = max(self.res_cap, float(np.max(
            np.abs((dk_cap - (nnk - 2.0 * k[1:-1] * nk))[:, view]))))

    def result(self) -> dict[str, float] | None:
        return {"k_residual": self.res_k, "K_residual": self.res_cap} if self.count >= 3 else None


def surface_evolution_crosscheck(traj: SurfaceTrajectory) -> dict[str, float]:
    """Residuals of dk/dt = d/dx(K) and dK/dt = N(N(K)) - 2k N(K), N = d/dx.

    Time derivatives are centered over the records taken every record_every
    steps, so the result is O(dt_rec^2 + h^2) for a resolved run.  On
    interval grids the sup skips the three nodes nearest each end: the
    one-sided end stencils are second order individually but do not compose
    to second order, and the identity is a property of the interior dynamics.
    The run reduces them as it goes, into its evolution_crosscheck.
    """
    if traj.evolution_crosscheck is None:
        raise ValueError("need at least three recorded states")
    return traj.evolution_crosscheck


# ---------------------------------------------------------------------------
# twisted products


@dataclass
class TwistedTrajectory(Trajectory):
    """Records f_<i>, H_<i> per base slice i; fiber_means are the slice limits."""

    fiber_means: np.ndarray


def twisted_rules(grid: FiberGrid, slices) -> list[str]:
    """The rules run_twisted_product's slices on grid, given by their values, break."""
    return _circle(grid) + _positive("every slice base_value * initial", slices)


def run_twisted_product(f0_slices, n: int, dt: float, t_end: float,
                        record_every: int = RECORD_EVERY, snapshots=None) -> TwistedTrajectory:
    """Evolve each base slice of the warping function by d(f)/dt = n * f_yy.

    The fiber is closed; every slice keeps its fiber mass and relaxes to its
    own fiber mean, which is reported as the limit value per slice.  The
    equation is linear with constant coefficients, so the Crank-Nicolson
    solution is evaluated in closed form at the record steps, not marched.
    """
    slices = list(f0_slices)
    if not slices:
        raise ValueError("need at least one base slice")
    grid = _shared_grid(*slices)
    refuse(twisted_rules(grid, [f.values for f in slices]))
    series = HeatSeries(grid, StepperConfig(dt, float(n), boundary=PERIODIC))
    means = np.array([integrate(f) / grid.length for f in slices])
    masses0 = np.array([integrate(f) for f in slices])
    traj = TwistedTrajectory(grid, dt, t_end, record_every, snapshots, means)

    def record(ts, block, rows):
        f = block[rows]
        H, failure = _grad_log(f, -1.0, grid.spacing, grid.periodic)
        masses = grid.spacing * np.sum(f, axis=-1)
        return traj.extend({
            "sup_H": np.max(np.abs(H), axis=(1, 2)),
            "mass_drift": np.max(np.abs(masses - masses0), axis=-1),
            "sup_dist_to_mean": np.max(np.abs(f - means[:, None]), axis=(1, 2)),
        }, {f"{name}_{i}": vals[:, i] for i in range(len(slices))
            for name, vals in (("f", f), ("H", H))}, failure)

    # one row per slice, each record in closed form
    march(series, np.array([f.values for f in slices]), dt, traj.steps, on_record=record)
    return traj


# ---------------------------------------------------------------------------
# normalized fiber-bundle flow


@dataclass
class NormalizedTrajectory(Trajectory):
    """Records u, H, betaD, T2, scmixT2; the rest are results of the whole run."""

    ground: GroundState
    Phi: float
    n: int
    betaD: ScalarField
    growth_exponent: ScalarField


def normalized_scmix(u: np.ndarray, betaD: ScalarField, n: int) -> np.ndarray:
    """Sc_mix - |T|^2 along the flow, evaluated through the positive solution:
    -n * (u_xx + betaD * u) / u, for one u or a block of them, one per row.
    Its fixed points are exactly the discrete eigenfunctions, so the
    long-time value is exactly n * lambda0."""
    g = betaD.grid
    out = _diff2(u, g.spacing, g.periodic)
    np.add(out, np.multiply(betaD.values, u), out)
    np.multiply(out, -n, out)
    return np.divide(out, u, out)


def normalized_rules(u0: ScalarField, betaD: ScalarField, T2_0: ScalarField) -> list[str]:
    """The rules run_normalized_flow's input fields break."""
    beta_min = float(np.min(betaD.values))
    return (_circle(u0.grid) + _positive("initial (u0)", u0.values)
            + ([f"potential (betaD) must be nonnegative, min value {beta_min}"]
               if beta_min < -1e-12 else [])
            + (["t2_initial (|T|^2) must be nonnegative"] if np.min(T2_0.values) < 0.0 else []))


def run_normalized_flow(u0: ScalarField, betaD: ScalarField, T2_0: ScalarField, n: int,
                        dt: float, t_end: float, record_every: int = RECORD_EVERY,
                        gap_min: float = GAP_MIN, eps_T: float = EPS_T,
                        snapshots=None) -> NormalizedTrajectory:
    """Drive du/dt = n*(u_xx + betaD*u) and transport |T|^2 alongside.

    |T|^2 is updated each step by the exponential integrating factor
    exp(4 * (Sc_mix - |T|^2 - Phi) dt) with the trapezoid average of the
    exponent, so zeros of |T|^2 persist exactly and the sign never flips.
    """
    grid = _shared_grid(u0, betaD, T2_0)
    refuse(normalized_rules(u0, betaD, T2_0))
    betaD = ScalarField(grid, np.maximum(betaD.values, 0.0))
    stepping = StepperConfig(dt, float(n), boundary=PERIODIC)
    gs = ground_state(betaD)
    if gs.gap < gap_min:
        raise GapTooSmall(
            f"spectral gap {gs.gap:g} below {gap_min:g}; "
            "convergence rates are not resolvable"
        )
    phi = n * gs.lambda0
    h_limit = grad_log(gs.e0, -float(n))

    stepper = HeatStepper(grid, ScalarField(grid, n * betaD.values), stepping)
    # the |T|^2 exponent along the run, 4 dt (0.5 (before + now) - phi), of
    # Sc_mix - |T|^2 at each row, which the record reads from its now
    exponent = _RunningIntegral(lambda terms: np.multiply(
        np.subtract(np.multiply(terms, 0.5, terms), phi, terms), 4.0 * dt, terms))
    traj = NormalizedTrajectory(grid, dt, t_end, record_every, snapshots, gs, phi, n, betaD, None)
    q0 = mask0 = None

    def advance(ts, block):
        # Sc_mix - |T|^2 at every row, the initial one too, for the |T|^2
        # exponent; the first non-finite row fails
        new = normalized_scmix(block, betaD, n)
        exponent.add(new)
        finite = np.isfinite(new).all(axis=1)
        if not finite.all():
            return int(np.argmin(finite)), NonFiniteValue("field values must be finite")
        return None

    def record(ts, block, rows):
        nonlocal q0, mask0
        u = block[rows]
        t2 = T2_0.values * np.exp(exponent.at(rows))
        H, failure = _grad_log(u, -float(n), grid.spacing, grid.periodic)
        # a record's non-finite |T|^2 wins over its grad_log failure; extend
        # checks the |T|^2 of the records before it
        if failure is not None and not np.isfinite(t2[failure[0]]).all():
            failure = failure[0], NonFiniteValue("field values must be finite")
        sc = exponent.now[rows]
        q, mask = _conserved_quantity(H, t2, n, eps_T, grid.spacing, grid.periodic)
        if q0 is None:
            q0, mask0 = q[0], mask[0]
        hu = -_diff2(u, grid.spacing, grid.periodic) - betaD.values * u
        return traj.extend({
            "sup_dev_scmix": np.max(np.abs(sc - phi), axis=-1),
            # integrate's h * sum on both sides, in numpy arithmetic: an
            # overflowed or underflowed norm makes this row non-finite
            "rayleigh": (grid.spacing * np.sum(u * hu, axis=-1))
            / (grid.spacing * np.sum(u * u, axis=-1)),
            "min_u": np.min(u, axis=-1),
            "betaD_drift": np.zeros(len(u)),
            # the sup over the points inside both masks, 0 where there are none
            "conservation_drift": np.max(np.where(mask & mask0, np.abs(q - q0), 0.0), axis=-1),
            "h_dev": np.max(np.abs(H - h_limit.values), axis=-1),
        }, {"u": u, "H": H, "betaD": betaD, "T2": t2, "scmixT2": sc}, failure)

    march(stepper, u0.values, dt, traj.steps, advance, record)
    traj.growth_exponent = ScalarField(grid, exponent.last())
    return traj


@dataclass(frozen=True)
class PositivityReport:
    positive_everywhere: bool
    min_value: float
    threshold_ratio: float | None


def positivity_verdict(traj: NormalizedTrajectory,
                       converged_tol: float = CONVERGED_DEV) -> PositivityReport:
    """Sign of the limiting mixed curvature Sc_mix = |T|^2 + (Sc_mix - |T|^2).

    Requires the run to have converged (final sup deviation of the
    normalized quantity from Phi below converged_tol).  threshold_ratio is
    the uniform initial |T|^2 that would exactly neutralize n*lambda0,
    divided by max betaD: an empirical stand-in for the non-effective
    constant in front of max betaD; None when it is past the float range.
    """
    final = traj.fields[-1]
    dev = float(np.max(np.abs(final["scmixT2"] - traj.Phi)))
    if dev > converged_tol:
        raise NotConverged(
            f"normalized quantity still {dev:g} from its limit (tolerance {converged_tol:g}); "
            "run longer before asking for the limit sign"
        )
    min_val = float(np.min(final["T2"] + final["scmixT2"]))
    max_beta = float(np.max(traj.betaD.values))
    lam0 = traj.ground.lambda0
    if lam0 < 0.0 and max_beta > 0.0:
        needed = float(np.max(-traj.n * lam0 * np.exp(-traj.growth_exponent.values)))
        ratio = needed / max_beta
    else:
        ratio = 0.0
    return PositivityReport(bool(min_val > 0.0), min_val, ratio if np.isfinite(ratio) else None)


@dataclass(frozen=True)
class RateFit:
    rate: float
    window: tuple[float, float]
    n_points: int


# fit_decay_rate's window, as shares of the first positive value and a floor
HEAD_FRAC, FLOOR_FRAC, FLOOR_ABS = 0.1, 1e-8, 1e-12


def fit_decay_rate(ts, values) -> RateFit:
    """Least-squares exponential rate of a decaying positive series.

    The fit window drops the initial transient (values above HEAD_FRAC of
    the starting value) and the numerical floor (below FLOOR_FRAC of the
    start or FLOOR_ABS).
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ts.shape != vals.shape or ts.ndim != 1:
        raise ValueError("ts and values must be matching 1-d arrays")
    ref = vals[np.argmax(vals > 0.0)]
    # the floor is positive: the window holds positive values alone
    window = (vals <= HEAD_FRAC * ref) & (vals >= max(FLOOR_FRAC * ref, FLOOR_ABS))
    count = int(np.sum(window))
    if count < 5:
        raise ValueError(f"only {count} points inside the fit window; run longer")
    slope, _ = np.polyfit(ts[window], np.log(vals[window]), 1)
    return RateFit(float(-slope), (float(ts[window][0]), float(ts[window][-1])), count)


# ---------------------------------------------------------------------------
# velocity against transformed density


class _ColeHopfPair(_Stepper):
    """The state (u, H), one row each: heat with reaction nu*forcing steps u,
    Burgers with forcing steps H.  march drives it by start and fill alone,
    so its step always takes out."""

    def __init__(self, grid: FiberGrid, forcing: ScalarField, cfg: StepperConfig):
        super().__init__(grid, cfg, forcing, "forcing")
        self.heat = HeatStepper(grid, forcing * cfg.diffusivity, cfg)
        self.burgers = BurgersStepper(grid, forcing, cfg)

    def step(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.heat.step(s[0], out[0])
        self.burgers.step(s[1], out[1])
        return out


def cole_hopf_rules(u0: ScalarField, forcing: ScalarField, nu: float) -> list[str]:
    """The rules cole_hopf_rows' initial field and its heat reaction nu * forcing break."""
    broken = _circle(u0.grid) + _positive("initial", u0.values)
    try:
        forcing * nu
    except NonFiniteValue as err:
        broken.append(f"n_rank * potential: {err}")
    return broken


def cole_hopf_rows(u0: ScalarField, forcing: ScalarField, nu: float, dt: float, t_end: float,
                   record_every: int, snapshots=None) -> Trajectory:
    """Step dH/dt + (H^2)_y = nu*H_yy - nu^2*forcing_y and d(u)/dt = nu*(u_yy + forcing*u)
    side by side from H = -nu*(log u0)_y; rows hold the sup distance between H
    and the transform -nu*(log u)_y."""
    grid = _shared_grid(u0, forcing)
    refuse(cole_hopf_rules(u0, forcing, nu))
    pair = _ColeHopfPair(grid, forcing, StepperConfig(dt, float(nu), boundary=PERIODIC))
    traj = Trajectory(grid, dt, t_end, record_every, snapshots)

    def record(ts, block, rows):
        u, H = block[rows, 0], block[rows, 1]
        transformed, failure = _grad_log(u, -float(nu), grid.spacing, grid.periodic)
        return traj.extend({"sup_diff": np.max(np.abs(H - transformed), axis=-1)},
                           {"H_direct": H, "H_transformed": transformed, "u": u}, failure)

    march(pair, np.array((u0.values, grad_log(u0, -float(nu)).values)), dt, traj.steps,
          on_record=record)
    return traj


# ---------------------------------------------------------------------------
# scenario declarations: run(cfg, grid, fields) -> (Trajectory, summary) and checks


def _run_surface(cfg, grid, fields):
    rho0 = fields["initial"]
    traj = run_surface_of_revolution(rho0, cfg.time.dt, cfg.time.t_end, cfg.time.record_every,
                                     cfg.time.snapshots)
    final = traj.fields[-1]
    if grid.periodic:
        limit = integrate(rho0) / grid.length
    else:
        limit = linear_interpolant(grid, float(rho0.values[0]), float(rho0.values[-1])).values
    summary = {
        "final_t": float(traj.series["t"][-1]),
        "sup_K_final": float(np.max(np.abs(final["K"]))),
        "min_rho_final": float(np.min(final["rho"])),
        "limit_profile_dev": float(np.max(np.abs(final["rho"] - limit))),
        "max_conformal_dev": float(np.max(traj.series["conformal_dev"])),
        "max_arc_residual": float(np.max(traj.series["arc_residual"])),
    }
    if traj.evolution_crosscheck is not None:
        summary["evolution_crosscheck"] = traj.evolution_crosscheck
    return traj, summary


def _slices(cfg, fields) -> list[ScalarField]:
    """The twisted product's slices, base_value * initial."""
    return [fields["initial"] * a for a in cfg.base_values]


def _run_twisted(cfg, grid, fields):
    traj = run_twisted_product(_slices(cfg, fields), cfg.n_rank, cfg.time.dt, cfg.time.t_end,
                               cfg.time.record_every, cfg.time.snapshots)
    summary = {
        "final_t": float(traj.series["t"][-1]),
        "fiber_means": list(traj.fiber_means),
        "final_sup_dist_to_mean": float(traj.series["sup_dist_to_mean"][-1]),
        "max_mass_drift": float(np.max(traj.series["mass_drift"])),
        "n_rank": cfg.n_rank,
    }
    return traj, summary


def _run_normalized(cfg, grid, fields):
    traj = run_normalized_flow(
        fields["initial"], fields["potential"], fields["t2_initial"], cfg.n_rank,
        cfg.time.dt, cfg.time.t_end, cfg.time.record_every,
        gap_min=cfg.tolerances.gap_min, eps_T=cfg.tolerances.eps_t,
        snapshots=cfg.time.snapshots)
    final = traj.fields[-1]
    velocity_form = sc_mix_minus_T2(VectorAlongFiber(grid, final["H"]), traj.n, traj.betaD)
    summary = {
        "lambda0": traj.ground.lambda0,
        "lambda1": traj.ground.lambda1,
        "gap": traj.ground.gap,
        "Phi": traj.Phi,
        "final_t": float(traj.series["t"][-1]),
        "final_sup_dev_scmix": float(traj.series["sup_dev_scmix"][-1]),
        "final_h_dev": float(traj.series["h_dev"][-1]),
        "max_betaD_drift": float(np.max(traj.series["betaD_drift"])),
        "max_conservation_drift": float(np.max(traj.series["conservation_drift"])),
        "velocity_form_dev": float(
            np.max(np.abs(velocity_form.values - final["scmixT2"]))
        ),
        "target_rate": traj.n * traj.ground.gap,
    }
    for key, label in (("sup_dev_scmix", "rate_scmix"), ("h_dev", "rate_h")):
        try:
            summary[label] = asdict(fit_decay_rate(traj.series["t"], traj.series[key]))
        except ValueError:
            summary[label] = None
    try:
        verdict = positivity_verdict(traj, converged_tol=cfg.tolerances.converged_dev)
        summary["positivity"] = {"converged": True, **asdict(verdict)}
    except NotConverged as err:
        summary["positivity"] = {"converged": False, "reason": str(err)}
    return traj, summary


def _refined(cfg, grid: FiberGrid) -> tuple[ScalarField, ScalarField]:
    """cole_hopf_check's initial and potential on its refined grid, of 2 * n_points nodes."""
    fine = build_grid(grid.topology, grid.length, 2 * grid.n_points)
    return tuple(build_field(fine, s.family, s.params) for s in (cfg.initial, cfg.potential))


def _run_cole_hopf_check(cfg, grid, fields):
    u0, nu = fields["initial"], cfg.n_rank
    traj = cole_hopf_rows(u0, fields["potential"], nu, cfg.time.dt, cfg.time.t_end,
                          cfg.time.record_every, cfg.time.snapshots)
    refined = cole_hopf_rows(*_refined(cfg, grid), nu, 0.5 * cfg.time.dt, cfg.time.t_end,
                             2 * cfg.time.record_every, snapshots=())
    max_coarse, max_fine = (float(np.max(run.series["sup_diff"])) for run in (traj, refined))
    # no order to observe when either run matches its transform exactly
    order = float(np.log2(max_coarse / max_fine)) if min(max_coarse, max_fine) > 0.0 else None
    summary = {
        "nu": nu,
        "max_sup_diff": max_coarse,
        "max_sup_diff_refined": max_fine,
        "observed_order": order,
        "roundtrip_residual_u0": colehopf.roundtrip_residual(u0, nu),
    }
    return traj, summary


def _random_trig_potentials(grid: FiberGrid, rng, count: int):
    """count potentials, each sum over modes 1-3 of a cos + b sin, a and b
    drawn from rng as each is taken; the basis is built once."""
    theta = 2.0 * np.pi * grid.x / grid.length
    basis = [(np.cos(mode * theta), np.sin(mode * theta)) for mode in range(1, 4)]
    for _ in range(count):
        vals = np.zeros(grid.n_points)
        for cos, sin in basis:
            a, b = rng.normal(size=2)
            vals += a * cos + b * sin
        yield ScalarField(grid, vals)


def _run_spectral_report(cfg, grid, fields):
    f = fields["potential"]
    gs = ground_state(f)
    dec = spectrum(f, cfg.modes)
    lam_top = float(dec.eigenvalues[-1])
    if lam_top > 0.0:
        weyl = eigencount(dec, lam_top) / (weyl_theta(grid) * np.sqrt(lam_top))
    else:
        weyl = 0.0
    traj = Trajectory(grid, cfg.time.dt, cfg.time.t_end, cfg.time.record_every,
                      cfg.time.snapshots)
    row = {"lambda0": gs.lambda0, "lambda1": gs.lambda1, "gap": gs.gap, "weyl_ratio": weyl}
    failure = traj.extend(
        {key: np.array([value]) for key, value in row.items()},
        {"potential": f,
         **{f"e{j}": ef.values[None] for j, ef in enumerate(dec.eigenfunctions)}})
    if failure:
        raise failure[1]
    rng = np.random.default_rng(cfg.seed)
    margins = [lowest_eigenvalue(pot) + float(np.max(pot.values))
               for pot in _random_trig_potentials(grid, rng, cfg.n_random)]
    summary = {
        "eigenvalues": list(dec.eigenvalues),
        "lambda0_lanczos": gs.lambda0,
        "lambda0_dense": float(dec.eigenvalues[0]),
        "route_agreement": abs(gs.lambda0 - float(dec.eigenvalues[0])),
        "gap": gs.gap,
        "weyl_ratio": weyl,
        "n_random": cfg.n_random,
        "min_bound_margin": min(margins, default=None),
    }
    return traj, summary


def _check_surface(cfg, grid, fields) -> list[str]:
    return [f"surface: {message}" for message in _positive("initial", fields["initial"].values)]


def _check_twisted(cfg, grid, fields) -> list[str]:
    if not all(0.0 < a < np.inf for a in cfg.base_values):
        return []  # the parser refused a base value already
    try:
        slices = [f.values for f in _slices(cfg, fields)]
    except NonFiniteValue as err:
        return [f"twisted: base_values * initial: {err}"]
    return [f"twisted: {message}" for message in twisted_rules(grid, slices)]


def _check_normalized(cfg, grid, fields) -> list[str]:
    broken = normalized_rules(fields["initial"], fields["potential"], fields["t2_initial"])
    return [f"normalized: {message}" for message in broken] + operator_rules(fields["potential"])


def _check_cole_hopf(cfg, grid, fields) -> list[str]:
    csv = [f"{which}: cole_hopf_check evaluates it again on 2 * n_points nodes, "
           "where from_csv has no values"
           for which in ("initial", "potential") if getattr(cfg, which).family == "from_csv"]
    if csv:
        return csv
    try:  # the refined run's fields are checked once the run's own hold
        fine = _refined(cfg, grid)
    except (ValueError, MemoryError) as err:
        return [f"cole_hopf_check: on the refined grid of {2 * grid.n_points} nodes: {err}"]
    broken = cole_hopf_rules(fields["initial"], fields["potential"], cfg.n_rank) or [
        f"{message} on the refined grid of {2 * grid.n_points} nodes"
        for message in cole_hopf_rules(*fine, cfg.n_rank)]
    return [f"cole_hopf_check: {message}" for message in broken]


def _check_spectral(cfg, grid, fields) -> list[str]:
    errs = operator_rules(fields["potential"])
    if cfg.time.t_end != 0.0:
        errs.append(f"time: spectral_report does no time stepping; t_end must be 0, "
                    f"got {cfg.time.t_end}")
    # None is a value the parser refused already
    if cfg.modes is not None:
        errs += [f"spectral_report: {message}" for message in spectrum_rules(grid, cfg.modes)]
    if cfg.n_random is not None and cfg.n_random > MAX_RANDOM:
        errs.append(f"spectral_report: n_random must be at most {MAX_RANDOM}, got {cfg.n_random}")
    return errs


# the top-level config keys every scenario reads
COMMON_KEYS = ("scenario", "grid", "time", "output_dir", "emit_plots")


@dataclass(frozen=True)
class Scenario:
    """One runnable scenario: catalog text, config keys and checks, artifacts and runner."""

    name: str
    about: tuple[str, ...]
    equations: tuple[str, ...]
    # the top-level config keys the run reads besides COMMON_KEYS; a key
    # that only other scenarios read is rejected
    keys: tuple[str, ...]
    # trajectory.csv header, one row per record
    columns: tuple[str, ...]
    # fields_<t>.csv columns after x; i numbers the slices or modes
    fields: tuple[str, ...]
    plot_column: str
    # run(cfg, grid, realized fields) -> (Trajectory, summary)
    run: Callable
    # check(cfg, grid, realized fields) -> list of constraint violations, called
    # once every field the scenario reads has built
    check: Callable


SCENARIOS = {s.name: s for s in (
    Scenario(
        name="surface",
        about=("profile radius of a surface of revolution relaxing under its own curvature;",
               "initial = rho0 (> 0, |slope| <= 1) on an interval or a circle, and an",
               "interval profile keeps its end radii, which a dirichlet boundary must repeat;",
               "arc_residual is the slope guard's margin, rounding while |slope| <= 1"),
        equations=("d(rho)/dt = rho_xx ; k = -(log rho)_x ; K = -rho_xx/rho",
                   "metric factor shrinks as d(g)/dt = -2*K*g_hat, i.e. (rho/rho0)^2"),
        keys=("initial", "boundary"),
        columns=("t", "sup_K", "sup_k", "min_rho", "arc_residual", "riccati_res",
                 "conformal_dev"),
        fields=("rho", "h", "k", "K", "conformal_factor"),
        plot_column="sup_K",
        run=_run_surface,
        check=_check_surface,
    ),
    Scenario(
        name="twisted",
        about=("warping function of a twisted product relaxing along each fiber slice;",
               "circle fiber, initial = fiber profile (> 0), base_values = slice",
               "amplitudes, n_rank = n"),
        equations=("d(f)/dt = n * f_yy per base slice ; H = -(log f)_y",
                   "each slice tends to its own fiber mean"),
        keys=("initial", "base_values", "n_rank"),
        columns=("t", "sup_H", "mass_drift", "sup_dist_to_mean"),
        fields=("f_i", "H_i"),
        plot_column="sup_dist_to_mean",
        run=_run_twisted,
        check=_check_twisted,
    ),
    Scenario(
        name="normalized",
        about=("normalized flow of a bundle-like foliated metric, conformal on the",
               "orthogonal distribution; circle fiber, initial = u0 (> 0),",
               "potential = betaD (>= 0), t2_initial = |T|^2 (>= 0), n_rank = n;",
               "betaD_drift is betaD's change, an input held fixed: 0.0 by construction"),
        equations=("d(u)/dt = n*(u_yy + betaD*u) ; H = -n*(grad u)/u",
                   "Sc_mix - |T|^2 = -n*(u_yy + betaD*u)/u -> n*lambda0",
                   "d(|T|^2)/dt = 4*(Sc_mix - |T|^2 - Phi)*|T|^2, Phi = n*lambda0"),
        keys=("initial", "potential", "t2_initial", "n_rank", "tolerances"),
        columns=("t", "sup_dev_scmix", "rayleigh", "min_u", "betaD_drift",
                 "conservation_drift", "h_dev"),
        fields=("u", "H", "betaD", "T2", "scmixT2"),
        plot_column="sup_dev_scmix",
        run=_run_normalized,
        check=_check_normalized,
    ),
    Scenario(
        name="cole_hopf_check",
        about=("the same velocity computed two ways: a direct forced Burgers evolution",
               "against the transform of a positive heat-reaction solution; the summary",
               "carries the refinement order of the sup difference; circle fiber,",
               "initial = u0 (> 0), potential = forcing, n_rank = nu"),
        equations=("dH/dt + (H^2)_y = nu*H_yy - nu^2*(forcing)_y   versus",
                   "H = -nu*(grad u)/u with d(u)/dt = nu*(u_yy + forcing*u)"),
        keys=("initial", "potential", "n_rank"),
        columns=("t", "sup_diff"),
        fields=("H_direct", "H_transformed", "u"),
        plot_column="sup_diff",
        run=_run_cole_hopf_check,
        check=_check_cole_hopf,
    ),
    Scenario(
        name="spectral_report",
        about=("low spectrum of the fiber operator -d2/dy2 - potential: lambda0 by",
               "shift-invert Lanczos and by bisection on the band, the spectral gap,",
               "orthonormal eigenfunctions (one canonical basis per eigenspace), a",
               "Weyl-count ratio, and the bound lambda0 >= -max(potential) over",
               "n_random seeded random potentials;",
               "no time stepping, so time.t_end is 0"),
        equations=("-e'' - potential*e = lambda*e on the fiber",),
        keys=("potential", "modes", "n_random", "seed"),
        columns=("t", "lambda0", "lambda1", "gap", "weyl_ratio"),
        fields=("potential", "e0", "e1", "..."),
        plot_column="lambda0",
        run=_run_spectral_report,
        check=_check_spectral,
    ),
)}
