"""The scenarios: flow drivers, and one declaration per runnable scenario.

The drivers are all stepped by parabolic.march:

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

SCENARIOS maps each scenario name to its Scenario declaration, which the
config parser, `folflow list` and `folflow run` all read.  A declaration
lists the config keys its run reads; the parser accepts no other keys and
the summary echoes no other keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import colehopf
from .curvature import conserved_quantity, riccati_residual, sc_mix_minus_T2
from .errors import GapTooSmall, NonFiniteValue, NotConverged, ProfileDegenerate
from .families import build_field
from .fiber import (FiberGrid, ScalarField, VectorAlongFiber, _diff1, _diff2, build_grid,
                    derivative, grad_log, integrate, laplacian)
from .parabolic import PERIODIC, BurgersStepper, Dirichlet, HeatStepper, StepperConfig, march
from .schrodinger import GroundState, eigencount, ground_state, spectrum, weyl_theta

SLOPE_TOL = 1e-8


@dataclass
class _Recorded:
    """A trajectory's rows, one per record; series holds the same values by column."""

    rows: list[dict]

    @property
    def series(self) -> dict[str, np.ndarray]:
        return {key: np.array([row[key] for row in self.rows]) for key in self.rows[0]}


def _append_row(rows: list[dict], row: dict):
    bad = [key for key, value in row.items() if not np.isfinite(value)]
    if bad:
        raise NonFiniteValue(f"recorded value(s) {bad} not finite")
    rows.append(row)


# ---------------------------------------------------------------------------
# surface of revolution


@dataclass(frozen=True)
class SurfaceState:
    t: float
    rho: ScalarField
    h: ScalarField
    k: ScalarField
    K: ScalarField
    conformal_factor: ScalarField


@dataclass
class SurfaceTrajectory(_Recorded):
    states: list[SurfaceState]


@dataclass
class SurfaceConfig:
    grid: FiberGrid
    rho0: ScalarField
    dt: float
    t_end: float
    record_every: int = 10


def _cumtrapz(vals: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(vals)
    out[1:] = np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))
    return out


def _profile_failure(rho: np.ndarray, slope: np.ndarray):
    """The profile guard on a block of profiles, one per row: (row, error) for
    the first that pinched off or is too steep, or None."""
    low, worst = np.min(rho, axis=-1), np.max(np.abs(slope), axis=-1)
    bad = np.flatnonzero((low <= 0.0) | (worst > 1.0 + SLOPE_TOL))
    if bad.size == 0:
        return None
    j = int(bad[0])
    return j, ProfileDegenerate(
        f"profile pinched off (min rho = {low[j]:g})" if low[j] <= 0.0 else
        f"profile slope |rho_x| = {worst[j]:g} exceeds 1; "
        "the surface is no longer a graph over arclength")


def _surface_state(grid, rho, rho0_vals, t) -> tuple[SurfaceState, float]:
    """The recorded surface and its arclength residual: h is rebuilt from
    sqrt(1 - slope^2), and the constraint is measured against that slope."""
    slope = derivative(rho).values
    bad = _profile_failure(rho.values[None], slope[None])
    if bad is not None:
        raise bad[1]
    h_slope = np.sqrt(np.maximum(1.0 - slope * slope, 0.0))
    h = _cumtrapz(h_slope, grid.spacing)
    k = -slope / rho.values
    kk = -laplacian(rho).values / rho.values
    conf = (rho.values / rho0_vals) ** 2
    state = SurfaceState(
        t=t,
        rho=rho,
        h=ScalarField(grid, h),
        k=ScalarField(grid, k),
        K=ScalarField(grid, kk),
        conformal_factor=ScalarField(grid, conf),
    )
    return state, float(np.max(np.abs(slope ** 2 + h_slope ** 2 - 1.0)))


def run_surface_of_revolution(cfg: SurfaceConfig) -> SurfaceTrajectory:
    """Evolve a revolution profile by d(rho)/dt = rho_xx and track curvatures.

    Interval profiles keep their endpoint radii fixed; circle profiles are
    closed tori.  The conformal factor (rho/rho0)^2 is cross-checked against
    exp(-2 * int_0^t K) accumulated along the run.
    """
    grid = cfg.grid
    rho0 = cfg.rho0
    if rho0.grid != grid:
        raise ValueError("initial profile lives on a different grid")
    boundary = PERIODIC if grid.periodic else Dirichlet(float(rho0.values[0]), float(rho0.values[-1]))
    stepper = HeatStepper(grid, None, StepperConfig(cfg.dt, 1.0, boundary=boundary))
    h, periodic = grid.spacing, grid.periodic
    int_k_gauss = np.zeros(grid.n_points)
    gauss_prev = -laplacian(rho0).values / rho0.values
    states: list[SurfaceState] = []
    rows: list[dict] = []

    def advance(ts, block):
        # the profile guard on every row before K = -rho_xx/rho is formed,
        # then the trapezoid integral of K, accumulated in step order
        nonlocal int_k_gauss, gauss_prev
        bad = _profile_failure(block, _diff1(block, h, periodic))
        if bad is not None:
            return bad
        gauss = -_diff2(block, h, periodic) / block
        terms = 0.5 * cfg.dt * (np.vstack([gauss_prev, gauss[:-1]]) + gauss)
        terms[0] += int_k_gauss
        int_k_gauss = np.add.accumulate(terms, axis=0)[-1]
        gauss_prev = gauss[-1]

    def record(t, rho):
        state, arc_residual = _surface_state(grid, ScalarField(grid, rho), rho0.values, t)
        states.append(state)
        _append_row(rows, {
            "t": t,
            "sup_K": float(np.max(np.abs(state.K.values))),
            "sup_k": float(np.max(np.abs(state.k.values))),
            "min_rho": float(np.min(state.rho.values)),
            "arc_residual": arc_residual,
            "riccati_res": riccati_residual(state.k, state.K),
            "conformal_dev": float(
                np.max(np.abs(np.exp(-2.0 * int_k_gauss) - state.conformal_factor.values))
            ),
        })

    march(stepper.step, rho0.values, cfg.dt, cfg.t_end, cfg.record_every, advance, record)
    return SurfaceTrajectory(rows=rows, states=states)


def _on_record_grid(states: list) -> list:
    """The records taken every record_every steps.

    march also records after the last step; when record_every does not
    divide the step count, that record falls between grid times and is
    left out.
    """
    if len(states) > 2:
        last, spacing = states[-1].t - states[-2].t, states[1].t - states[0].t
        if last < (1.0 - 1e-9) * spacing:
            return states[:-1]
    return states


def _record_spacing(states: list) -> float:
    """The uniform time between records, over at least three of them."""
    if len(states) < 3:
        raise ValueError("need at least three recorded states")
    dts = np.diff([s.t for s in states])
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("records are not uniformly spaced in time")
    return float(dts[0])


def linear_interpolant(grid: FiberGrid, left: float, right: float) -> ScalarField:
    """Boundary-respecting straight-line profile, the interval steady state."""
    return ScalarField(grid, left + (right - left) * grid.x / grid.length)


def surface_evolution_crosscheck(traj: SurfaceTrajectory) -> dict[str, float]:
    """Residuals of dk/dt = d/dx(K) and dK/dt = N(N(K)) - 2k N(K), N = d/dx.

    Time derivatives are centered over the records taken every record_every
    steps, so the result is O(dt_rec^2 + h^2) for a resolved run.  On
    interval grids the sup skips the three nodes nearest each end: the
    one-sided end stencils are second order individually but do not compose
    to second order, and the identity is a property of the interior dynamics.
    """
    states = _on_record_grid(traj.states)
    dt_rec = _record_spacing(states)
    view = slice(None) if states[0].rho.grid.periodic else slice(3, -3)
    res_k = 0.0
    res_cap = 0.0
    for j in range(1, len(states) - 1):
        prev_s, cur, nxt = states[j - 1], states[j], states[j + 1]
        nk = derivative(cur.K).values
        dk_dt = (nxt.k.values - prev_s.k.values) / (2.0 * dt_rec)
        res_k = max(res_k, float(np.max(np.abs((dk_dt - nk)[view]))))
        nnk = derivative(ScalarField(cur.K.grid, nk)).values
        dk_cap = (nxt.K.values - prev_s.K.values) / (2.0 * dt_rec)
        res_cap = max(
            res_cap,
            float(np.max(np.abs((dk_cap - (nnk - 2.0 * cur.k.values * nk))[view]))),
        )
    return {"k_residual": res_k, "K_residual": res_cap}


# ---------------------------------------------------------------------------
# twisted products


@dataclass(frozen=True)
class TwistedState:
    t: float
    f: tuple[ScalarField, ...]
    H: tuple[VectorAlongFiber, ...]

    @property
    def base_points(self) -> int:
        return len(self.f)


@dataclass
class TwistedTrajectory(_Recorded):
    states: list[TwistedState]
    fiber_means: np.ndarray


@dataclass
class TwistedConfig:
    grid: FiberGrid
    n: int
    f0_slices: tuple[ScalarField, ...]
    dt: float
    t_end: float
    record_every: int = 10


def run_twisted_product(cfg: TwistedConfig) -> TwistedTrajectory:
    """Evolve each base slice of the warping function by d(f)/dt = n * f_yy.

    The fiber is closed; every slice keeps its fiber mass and relaxes to its
    own fiber mean, which is reported as the limit value per slice.
    """
    grid = cfg.grid
    if not grid.periodic:
        raise ValueError("twisted-product fibers must be closed (circle topology)")
    if cfg.n < 1:
        raise ValueError("distribution rank must be at least 1")
    slices = list(cfg.f0_slices)
    if not slices:
        raise ValueError("need at least one base slice")
    for f in slices:
        if f.grid != grid:
            raise ValueError("slice lives on a different grid")
        if np.min(f.values) <= 0.0:
            raise ValueError("warping slices must be strictly positive")
    stepper = HeatStepper(grid, None, StepperConfig(cfg.dt, float(cfg.n), boundary=PERIODIC))
    means = np.array([integrate(f) / grid.length for f in slices])
    masses0 = np.array([integrate(f) for f in slices])
    states: list[TwistedState] = []
    rows: list[dict] = []

    def record(t, columns):
        fs = tuple(ScalarField(grid, col) for col in columns.T)
        state = TwistedState(t, fs, tuple(grad_log(f, -1.0) for f in fs))
        masses = np.array([integrate(f) for f in state.f])
        states.append(state)
        _append_row(rows, {
            "t": t,
            "sup_H": max(float(np.max(np.abs(h.values))) for h in state.H),
            "mass_drift": float(np.max(np.abs(masses - masses0))),
            "sup_dist_to_mean": max(
                float(np.max(np.abs(f.values - mean))) for f, mean in zip(state.f, means)
            ),
        })

    # one column per slice, all stepped by one multi-column solve
    march(stepper.step, np.column_stack([f.values for f in slices]), cfg.dt, cfg.t_end,
          cfg.record_every, on_record=record)
    return TwistedTrajectory(rows=rows, states=states, fiber_means=means)


# ---------------------------------------------------------------------------
# normalized fiber-bundle flow


@dataclass(frozen=True)
class NormalizedState:
    t: float
    u: ScalarField
    H: VectorAlongFiber
    betaD: ScalarField
    T2: ScalarField
    scmixT2: ScalarField
    Phi: float


@dataclass
class NormalizedTrajectory(_Recorded):
    states: list[NormalizedState]
    ground: GroundState
    Phi: float
    n: int
    growth_exponent: ScalarField


@dataclass
class NormalizedConfig:
    grid: FiberGrid
    n: int
    betaD: ScalarField
    u0: ScalarField
    T2_0: ScalarField
    dt: float
    t_end: float
    record_every: int = 10
    gap_min: float = 1e-6
    eps_T: float = 1e-8


def normalized_scmix(u: np.ndarray, betaD: ScalarField, n: int) -> np.ndarray:
    """Sc_mix - |T|^2 along the flow, evaluated through the positive solution:
    -n * (u_xx + betaD * u) / u, for one u or a block of them, one per row.
    Its fixed points are exactly the discrete eigenfunctions, so the
    long-time value is exactly n * lambda0."""
    g = betaD.grid
    return -n * (_diff2(u, g.spacing, g.periodic) + betaD.values * u) / u


def run_normalized_flow(cfg: NormalizedConfig) -> NormalizedTrajectory:
    """Drive du/dt = n*(u_xx + betaD*u) and transport |T|^2 alongside.

    |T|^2 is updated each step by the exponential integrating factor
    exp(4 * (Sc_mix - |T|^2 - Phi) dt) with the trapezoid average of the
    exponent, so zeros of |T|^2 persist exactly and the sign never flips.
    """
    grid = cfg.grid
    if not grid.periodic:
        raise ValueError("normalized flow runs on closed fibers (circle topology)")
    if cfg.n < 1:
        raise ValueError("distribution rank must be at least 1")
    beta_min = float(np.min(cfg.betaD.values))
    if beta_min < -1e-12:
        raise ValueError(f"betaD must be nonnegative, min value {beta_min}")
    betaD = ScalarField(grid, np.maximum(cfg.betaD.values, 0.0))
    if np.min(cfg.u0.values) <= 0.0:
        raise ValueError("u0 must be strictly positive")
    if np.min(cfg.T2_0.values) < 0.0:
        raise ValueError("|T|^2 must be nonnegative")

    gs = ground_state(betaD)
    if gs.gap < cfg.gap_min:
        raise GapTooSmall(
            f"spectral gap {gs.gap:g} below {cfg.gap_min:g}; "
            "convergence rates are not resolvable"
        )
    n = cfg.n
    phi = n * gs.lambda0
    h_limit = grad_log(gs.e0, -float(n))

    stepper = HeatStepper(
        grid,
        ScalarField(grid, n * betaD.values),
        StepperConfig(cfg.dt, float(n), boundary=PERIODIC),
    )
    scmix = normalized_scmix(cfg.u0.values, betaD, n)
    exponent = np.zeros(grid.n_points)
    t2_0_vals = cfg.T2_0.values
    states: list[NormalizedState] = []
    rows: list[dict] = []
    q0 = None
    mask0 = None

    def advance(ts, block):
        # the |T|^2 exponent: trapezoid averages over the steps, accumulated
        # in step order
        nonlocal scmix, exponent
        new = normalized_scmix(block, betaD, n)
        finite = np.isfinite(new).all(axis=1)
        if not finite.all():
            return int(np.argmin(finite)), NonFiniteValue("field values must be finite")
        terms = 4.0 * cfg.dt * (0.5 * (np.vstack([scmix, new[:-1]]) + new) - phi)
        terms[0] += exponent
        exponent = np.add.accumulate(terms, axis=0)[-1]
        scmix = new[-1]

    def record(t, u_vals):
        nonlocal q0, mask0
        u = ScalarField(grid, u_vals)
        t2 = ScalarField(grid, t2_0_vals * np.exp(exponent))
        h_field = grad_log(u, -float(n))
        q, mask = conserved_quantity(h_field, t2, n, cfg.eps_T)
        if q0 is None:
            q0, mask0 = q, mask
        both = mask & mask0
        hu = -laplacian(u).values - betaD.values * u.values
        states.append(NormalizedState(t, u, h_field, betaD, t2, ScalarField(grid, scmix), phi))
        _append_row(rows, {
            "t": t,
            "sup_dev_scmix": float(np.max(np.abs(scmix - phi))),
            # numpy division: a norm that underflowed to 0 gives a non-finite
            # row (NonFiniteValue), not a ZeroDivisionError
            "rayleigh": float(
                np.float64(integrate(ScalarField(grid, u.values * hu))) / integrate(u * u)
            ),
            "lambda0": gs.lambda0,
            "gap": gs.gap,
            "min_u": float(np.min(u.values)),
            "betaD_drift": 0.0,
            "conservation_drift": (
                float(np.max(np.abs(q[both] - q0[both]))) if np.any(both) else 0.0
            ),
            "h_dev": float(np.max(np.abs(h_field.values - h_limit.values))),
        })

    march(stepper.step, cfg.u0.values, cfg.dt, cfg.t_end, cfg.record_every, advance, record)
    return NormalizedTrajectory(
        rows=rows,
        states=states,
        ground=gs,
        Phi=phi,
        n=n,
        growth_exponent=ScalarField(grid, exponent),
    )


@dataclass(frozen=True)
class PositivityReport:
    limit_scmix: ScalarField
    positive_everywhere: bool
    min_value: float
    threshold_ratio: float


def positivity_verdict(traj: NormalizedTrajectory, converged_tol: float = 1e-5) -> PositivityReport:
    """Sign of the limiting mixed curvature Sc_mix = |T|^2 + (Sc_mix - |T|^2).

    Requires the run to have converged (final sup deviation of the
    normalized quantity from Phi below converged_tol).  threshold_ratio is
    the uniform initial |T|^2 that would exactly neutralize n*lambda0,
    divided by max betaD: an empirical stand-in for the non-effective
    constant in front of max betaD.
    """
    final = traj.states[-1]
    dev = float(np.max(np.abs(final.scmixT2.values - traj.Phi)))
    if dev > converged_tol:
        raise NotConverged(
            f"normalized quantity still {dev:g} from its limit (tolerance {converged_tol:g}); "
            "run longer before asking for the limit sign"
        )
    limit = ScalarField(final.u.grid, final.T2.values + final.scmixT2.values)
    min_val = float(np.min(limit.values))
    max_beta = float(np.max(final.betaD.values))
    lam0 = traj.ground.lambda0
    if lam0 < 0.0 and max_beta > 0.0:
        needed = float(np.max(-traj.n * lam0 * np.exp(-traj.growth_exponent.values)))
        ratio = needed / max_beta
    else:
        ratio = 0.0
    return PositivityReport(
        limit_scmix=limit,
        positive_everywhere=bool(min_val > 0.0),
        min_value=min_val,
        threshold_ratio=ratio,
    )


@dataclass(frozen=True)
class RateFit:
    rate: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(
    ts,
    values,
    head_frac: float = 0.1,
    floor_frac: float = 1e-8,
    floor_abs: float = 1e-12,
) -> RateFit:
    """Least-squares exponential rate of a decaying positive series.

    The fit window drops the initial transient (values above head_frac of
    the starting value) and the numerical floor (below floor_frac of the
    start or floor_abs).
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ts.shape != vals.shape or ts.ndim != 1:
        raise ValueError("ts and values must be matching 1-d arrays")
    positive = vals > 0.0
    if not np.any(positive):
        raise ValueError("series has no positive values to fit")
    ref = vals[np.argmax(positive)]
    lo = max(floor_frac * ref, floor_abs)
    mask = positive & (vals <= head_frac * ref) & (vals >= lo)
    if np.sum(mask) < 5:
        raise ValueError(
            f"only {int(np.sum(mask))} points inside the fit window; "
            "run longer or loosen the window"
        )
    slope, _ = np.polyfit(ts[mask], np.log(vals[mask]), 1)
    window_ts = ts[mask]
    return RateFit(rate=float(-slope), window=(float(window_ts[0]), float(window_ts[-1])), n_points=int(np.sum(mask)))


# ---------------------------------------------------------------------------
# velocity against transformed density


@dataclass(frozen=True)
class ColeHopfState:
    t: float
    u: ScalarField
    H_direct: VectorAlongFiber
    nu: float

    @property
    def H_transformed(self) -> VectorAlongFiber:
        return grad_log(self.u, -self.nu)


def cole_hopf_rows(grid: FiberGrid, u0: ScalarField, forcing: ScalarField, nu: float,
                   dt: float, t_end: float, record_every: int):
    """Step dH/dt + (H^2)_y = nu*H_yy - nu^2*forcing_y and d(u)/dt = nu*(u_yy + forcing*u)
    side by side from H = -nu*(log u0)_y; rows hold the sup distance between H
    and the transform -nu*(log u)_y.  Returns (rows, the recorded states)."""
    ucfg = StepperConfig(dt, float(nu), boundary=PERIODIC)
    heat = HeatStepper(grid, ScalarField(grid, nu * forcing.values), ucfg)
    burg = BurgersStepper(grid, forcing, ucfg)
    rows: list[dict] = []
    states: list[ColeHopfState] = []

    def record(t, pair):
        st = ColeHopfState(t, ScalarField(grid, pair[0]), VectorAlongFiber(grid, pair[1]),
                           float(nu))
        diff = st.H_direct.values - st.H_transformed.values
        _append_row(rows, {"t": t, "sup_diff": float(np.max(np.abs(diff)))})
        states.append(st)

    # the state is the pair (u, H), one row each
    march(lambda s: np.array((heat.step(s[0]), burg.step(s[1]))),
          np.array((u0.values, grad_log(u0, -float(nu)).values)), dt, t_end, record_every,
          on_record=record)
    return rows, states


# ---------------------------------------------------------------------------
# scenario declarations: run(cfg) -> (rows, snapshots, summary) and checks


def _grid(cfg) -> FiberGrid:
    return build_grid(cfg.grid.topology, cfg.grid.length, cfg.grid.n_points)


def _field(cfg, grid: FiberGrid, which: str) -> ScalarField:
    spec = getattr(cfg, which)
    return build_field(grid, spec.family, spec.params)


def _chosen(states: list, wanted) -> list:
    """The recorded states nearest each wanted snapshot time, in time order."""
    ts = np.array([st.t for st in states])
    return [states[i] for i in sorted({int(np.argmin(np.abs(ts - t))) for t in wanted})]


def _snapshots(states: list, wanted, scenario: str) -> dict:
    """The declared snapshot fields of the chosen states, read off their attributes."""
    names = SCENARIOS[scenario].fields
    return {st.t: {name: getattr(st, name).values for name in names}
            for st in _chosen(states, wanted)}


def _run_surface(cfg):
    grid = _grid(cfg)
    rho0 = _field(cfg, grid, "initial")
    traj = run_surface_of_revolution(SurfaceConfig(
        grid=grid, rho0=rho0, dt=cfg.time.dt, t_end=cfg.time.t_end,
        record_every=cfg.time.record_every,
    ))
    snaps = _snapshots(traj.states, cfg.time.snapshots, "surface")
    final = traj.states[-1]
    if grid.periodic:
        limit = integrate(rho0) / grid.length
    else:
        limit = linear_interpolant(grid, float(rho0.values[0]), float(rho0.values[-1])).values
    series = traj.series
    summary = {
        "final_t": final.t,
        "sup_K_final": float(np.max(np.abs(final.K.values))),
        "min_rho_final": float(np.min(final.rho.values)),
        "limit_profile_dev": float(np.max(np.abs(final.rho.values - limit))),
        "max_conformal_dev": float(np.max(series["conformal_dev"])),
        "max_arc_residual": float(np.max(series["arc_residual"])),
    }
    if len(_on_record_grid(traj.states)) >= 3:
        summary["evolution_crosscheck"] = surface_evolution_crosscheck(traj)
    return traj.rows, snaps, summary


def _run_twisted(cfg):
    grid = _grid(cfg)
    profile = _field(cfg, grid, "initial")
    traj = run_twisted_product(TwistedConfig(
        grid=grid, n=cfg.n_rank,
        f0_slices=tuple(ScalarField(grid, a * profile.values) for a in cfg.base_values),
        dt=cfg.time.dt, t_end=cfg.time.t_end, record_every=cfg.time.record_every,
    ))
    snaps = {}
    for st in _chosen(traj.states, cfg.time.snapshots):
        data = {}
        for i, (f, h) in enumerate(zip(st.f, st.H)):
            data[f"f_{i}"] = f.values
            data[f"H_{i}"] = h.values
        snaps[st.t] = data
    series = traj.series
    summary = {
        "final_t": traj.states[-1].t,
        "fiber_means": list(traj.fiber_means),
        "final_sup_dist_to_mean": float(series["sup_dist_to_mean"][-1]),
        "max_mass_drift": float(np.max(series["mass_drift"])),
        "n_rank": cfg.n_rank,
    }
    return traj.rows, snaps, summary


def _run_normalized(cfg):
    grid = _grid(cfg)
    traj = run_normalized_flow(NormalizedConfig(
        grid=grid, n=cfg.n_rank,
        betaD=_field(cfg, grid, "potential"),
        u0=_field(cfg, grid, "initial"),
        T2_0=_field(cfg, grid, "t2_initial"),
        dt=cfg.time.dt, t_end=cfg.time.t_end, record_every=cfg.time.record_every,
        gap_min=cfg.tolerances.gap_min, eps_T=cfg.tolerances.eps_t,
    ))
    snaps = _snapshots(traj.states, cfg.time.snapshots, "normalized")
    final = traj.states[-1]
    series = traj.series
    velocity_form = sc_mix_minus_T2(final.H, traj.n, final.betaD)
    summary = {
        "lambda0": traj.ground.lambda0,
        "lambda1": traj.ground.lambda1,
        "gap": traj.ground.gap,
        "Phi": traj.Phi,
        "final_t": final.t,
        "final_sup_dev_scmix": float(series["sup_dev_scmix"][-1]),
        "final_h_dev": float(series["h_dev"][-1]),
        "max_betaD_drift": float(np.max(series["betaD_drift"])),
        "max_conservation_drift": float(np.max(series["conservation_drift"])),
        "velocity_form_dev": float(
            np.max(np.abs(velocity_form.values - final.scmixT2.values))
        ),
        "target_rate": traj.n * traj.ground.gap,
    }
    for key, label in (("sup_dev_scmix", "rate_scmix"), ("h_dev", "rate_h")):
        try:
            fit = fit_decay_rate(series["t"], series[key])
            summary[label] = {
                "rate": fit.rate,
                "window": list(fit.window),
                "n_points": fit.n_points,
            }
        except ValueError:
            summary[label] = None
    try:
        verdict = positivity_verdict(traj, converged_tol=cfg.tolerances.converged_dev)
        summary["positivity"] = {
            "converged": True,
            "positive_everywhere": verdict.positive_everywhere,
            "min_value": verdict.min_value,
            "threshold_ratio": verdict.threshold_ratio,
        }
    except NotConverged as err:
        summary["positivity"] = {"converged": False, "reason": str(err)}
    return traj.rows, snaps, summary


def _run_cole_hopf_check(cfg):
    grid = _grid(cfg)
    u0 = _field(cfg, grid, "initial")
    nu = cfg.n_rank
    rows, states = cole_hopf_rows(grid, u0, _field(cfg, grid, "potential"), nu,
                                  cfg.time.dt, cfg.time.t_end, cfg.time.record_every)
    snaps = _snapshots(states, cfg.time.snapshots, "cole_hopf_check")
    fine = build_grid(grid.topology, grid.length, 2 * grid.n_points)
    rows_fine, _ = cole_hopf_rows(
        fine, _field(cfg, fine, "initial"), _field(cfg, fine, "potential"), nu,
        0.5 * cfg.time.dt, cfg.time.t_end, 2 * cfg.time.record_every,
    )
    max_coarse = max(row["sup_diff"] for row in rows)
    max_fine = max(row["sup_diff"] for row in rows_fine)
    # no order to observe when either run matches its transform exactly
    order = float(np.log2(max_coarse / max_fine)) if min(max_coarse, max_fine) > 0.0 else None
    summary = {
        "nu": nu,
        "max_sup_diff": max_coarse,
        "max_sup_diff_refined": max_fine,
        "observed_order": order,
        "roundtrip_residual_u0": colehopf.roundtrip_residual(u0, nu),
    }
    return rows, snaps, summary


def _random_trig_potential(grid: FiberGrid, rng) -> ScalarField:
    vals = np.zeros(grid.n_points)
    theta = 2.0 * np.pi * grid.x / grid.length
    for mode in range(1, 4):
        a, b = rng.normal(size=2)
        vals += a * np.cos(mode * theta) + b * np.sin(mode * theta)
    return ScalarField(grid, vals)


def _run_spectral_report(cfg):
    grid = _grid(cfg)
    f = _field(cfg, grid, "potential")
    gs = ground_state(f)
    dec = spectrum(f, cfg.modes)
    lam_top = float(dec.eigenvalues[-1])
    if lam_top > 0.0:
        weyl = eigencount(dec, lam_top) / (weyl_theta(grid) * np.sqrt(lam_top))
    else:
        weyl = 0.0
    rows = [{"t": 0.0, "lambda0": gs.lambda0, "lambda1": gs.lambda1, "gap": gs.gap,
             "weyl_ratio": weyl}]
    snap = {"potential": f.values}
    for j, ef in enumerate(dec.eigenfunctions):
        snap[f"e{j}"] = ef.values
    rng = np.random.default_rng(cfg.seed)
    bound_margin = None
    for _ in range(cfg.n_random):
        pot = _random_trig_potential(grid, rng)
        margin = ground_state(pot).lambda0 + float(np.max(pot.values))
        bound_margin = margin if bound_margin is None else min(bound_margin, margin)
    summary = {
        "eigenvalues": list(dec.eigenvalues),
        "lambda0_lanczos": gs.lambda0,
        "lambda0_dense": float(dec.eigenvalues[0]),
        "route_agreement": abs(gs.lambda0 - float(dec.eigenvalues[0])),
        "gap": gs.gap,
        "weyl_ratio": weyl,
        "n_random": cfg.n_random,
        "min_bound_margin": bound_margin,
    }
    return rows, {0.0: snap}, summary


def _positive_initial(cfg, fields: dict) -> list[str]:
    init = fields.get("initial")
    if init is not None and float(np.min(init.values)) <= 0.0:
        return [f"{cfg.scenario}: initial field must be strictly positive on the grid"]
    return []


def _check_closed_flow(cfg, grid: FiberGrid, fields: dict) -> list[str]:
    circle = [] if grid.periodic else [f"{cfg.scenario}: needs circle topology"]
    return _positive_initial(cfg, fields) + circle


def _check_twisted(cfg, grid, fields) -> list[str]:
    errs = _check_closed_flow(cfg, grid, fields)
    init = fields.get("initial")
    # the run steps the slices base_value * initial; the smallest value,
    # min(base_values) * min(initial), can underflow to 0
    if not errs and init is not None and min(cfg.base_values) * float(np.min(init.values)) <= 0.0:
        errs.append("twisted: every slice base_value * initial must be strictly positive")
    return errs


def _check_surface(cfg, grid, fields) -> list[str]:
    # an interval profile steps with its own end values held fixed
    errs = _positive_initial(cfg, fields)
    init = fields.get("initial")
    bnd = cfg.boundary
    if init is not None and bnd.kind == "dirichlet":
        ends = (float(init.values[0]), float(init.values[-1]))
        scale = 1.0 + float(np.max(np.abs(init.values)))
        if any(abs(b - e) > 1e-9 * scale for b, e in zip((bnd.left, bnd.right), ends)):
            errs.append(f"boundary: surface holds the initial profile's ends {ends} fixed, "
                        f"got left = {bnd.left}, right = {bnd.right}")
    return errs


def _check_normalized(cfg, grid, fields) -> list[str]:
    errs = _check_closed_flow(cfg, grid, fields)
    pot, t2 = fields.get("potential"), fields.get("t2_initial")
    if pot is not None and float(np.min(pot.values)) < -1e-12:
        errs.append("normalized: potential (betaD) must be nonnegative")
    if t2 is not None and float(np.min(t2.values)) < 0.0:
        errs.append("normalized: t2_initial must be nonnegative")
    return errs


def _check_spectral(cfg, grid, fields) -> list[str]:
    errs = []
    if cfg.time.t_end != 0.0:
        errs.append(f"time: spectral_report does no time stepping; t_end must be 0, "
                    f"got {cfg.time.t_end}")
    size = grid.n_points if grid.periodic else grid.n_points - 2
    if not 1 <= cfg.modes <= size:
        errs.append(f"spectral_report: modes must be between 1 and {size}, got {cfg.modes}")
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
    # run(cfg) -> (rows, {t: {field: values}}, summary)
    run: Callable
    # check(cfg, grid, realized fields) -> list of constraint violations
    check: Callable


SCENARIOS = {s.name: s for s in (
    Scenario(
        name="surface",
        about=("profile radius of a surface of revolution relaxing under its own curvature;",
               "initial = rho0 (> 0, |slope| <= 1) on an interval or a circle, and an",
               "interval profile keeps its end radii, which a dirichlet boundary must repeat"),
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
               "potential = betaD (>= 0), t2_initial = |T|^2 (>= 0), n_rank = n"),
        equations=("d(u)/dt = n*(u_yy + betaD*u) ; H = -n*(grad u)/u",
                   "Sc_mix - |T|^2 = -n*(u_yy + betaD*u)/u -> n*lambda0",
                   "d(|T|^2)/dt = 4*(Sc_mix - |T|^2 - Phi)*|T|^2, Phi = n*lambda0"),
        keys=("initial", "potential", "t2_initial", "n_rank", "tolerances"),
        columns=("t", "sup_dev_scmix", "rayleigh", "lambda0", "gap", "min_u",
                 "betaD_drift", "conservation_drift", "h_dev"),
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
        check=_check_closed_flow,
    ),
    Scenario(
        name="spectral_report",
        about=("low spectrum of the fiber operator -d2/dy2 - potential: lambda0 by",
               "shift-invert Lanczos and by a dense eigensolve, the spectral gap,",
               "orthonormal eigenfunctions, a Weyl-count ratio, and the bound",
               "lambda0 >= -max(potential) over n_random seeded random potentials;",
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
