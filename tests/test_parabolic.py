"""Heat-reaction and forced-Burgers steppers: accuracy, invariants, failure modes."""
import re

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs

from folflow import parabolic
from folflow.errors import FolflowError, NonFiniteValue, SolverSingular
from folflow.fiber import (
    ScalarField,
    VectorAlongFiber,
    _diff1,
    _diff2,
    build_grid,
    grad_log,
    integrate,
)
from folflow.parabolic import (
    PERIODIC,
    BurgersStepper,
    Dirichlet,
    HeatStepper,
    Scheme,
    HeatSeries,
    StepperConfig,
    heat_symbol,
    march,
    record_steps,
)


def circle(n=128):
    return build_grid("circle", 2 * np.pi, n)


def run_heat(grid, u0, V, cfg, n_steps):
    stepper = HeatStepper(grid, V, cfg)
    u = u0
    for _ in range(n_steps):
        u = stepper.step(u)
    return u


class TestHeatClosedForms:
    def test_single_mode_decay_on_circle(self):
        # u0 = 1 + 0.5 cos x decays the cosine at rate nu, exactly solvable
        g = circle(256)
        u0 = ScalarField(g, 1.0 + 0.5 * np.cos(g.x))
        u = run_heat(g, u0, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC), 500)
        exact = 1.0 + 0.5 * np.exp(-0.5) * np.cos(g.x)
        assert np.max(np.abs(u.values - exact)) <= 1e-4

    def test_reaction_term_plain_exponential(self):
        g = circle(64)
        u0 = ScalarField(g, np.full(64, 2.0))
        V = ScalarField(g, np.full(64, 0.3))
        u = run_heat(g, u0, V, StepperConfig(1e-3, 1.0, boundary=PERIODIC), 1000)
        assert np.max(np.abs(u.values - 2.0 * np.exp(0.3))) <= 1e-6

    def test_dirichlet_relaxes_to_linear_profile(self):
        g = build_grid("interval", 1.0, 101)
        u0 = ScalarField(g, 1.0 + g.x + np.sin(np.pi * g.x))
        cfg = StepperConfig(1e-3, 1.0, boundary=Dirichlet(1.0, 2.0))
        u = run_heat(g, u0, None, cfg, 3000)
        assert np.max(np.abs(u.values - (1.0 + g.x))) <= 1e-8

    def test_crank_nicolson_is_second_order_in_time(self):
        # compare against the semi-discrete solution (stencil symbol of the
        # single mode) so only the time-stepping error is measured
        g = circle(256)
        h = g.spacing
        mu = 2.0 * (1.0 - np.cos(h)) / h ** 2
        u0 = ScalarField(g, 1.0 + 0.5 * np.cos(g.x))
        exact = 1.0 + 0.5 * np.exp(-mu * 0.5) * np.cos(g.x)
        errs = []
        for dt in (2e-2, 1e-2, 5e-3):
            u = run_heat(g, u0, None, StepperConfig(dt, 1.0, boundary=PERIODIC),
                         int(round(0.5 / dt)))
            errs.append(np.max(np.abs(u.values - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.95)


class TestHeatInvariants:
    def test_maximum_principle_pure_diffusion(self):
        g = circle(128)
        u0 = ScalarField(g, 2.0 + np.sin(3 * g.x) + 0.5 * np.cos(g.x))
        lo, hi = np.min(u0.values), np.max(u0.values)
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        u = u0
        for _ in range(2000):
            u = stepper.step(u)
            assert np.min(u.values) >= lo - 1e-12
            assert np.max(u.values) <= hi + 1e-12

    def test_mass_conserved_without_reaction(self):
        g = circle(128)
        u0 = ScalarField(g, 2.0 + np.sin(3 * g.x))
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        u = u0
        for _ in range(2000):
            u = stepper.step(u)
        assert abs(integrate(u) - integrate(u0)) <= 1e-10

    def test_step_is_linear(self):
        g = circle(128)
        u = ScalarField(g, 2.0 + np.sin(3 * g.x))
        v = ScalarField(g, np.cos(2 * g.x))
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        combo = stepper.step(ScalarField(g, 1.7 * u.values - 0.4 * v.values))
        parts = 1.7 * stepper.step(u).values - 0.4 * stepper.step(v).values
        np.testing.assert_allclose(combo.values, parts, atol=1e-13)

    def test_stationary_ground_state_stays_put(self):
        # u = positive eigenfunction of the reaction operator shifted to
        # eigenvalue zero is a fixed point of the full stepper up to roundoff
        from folflow.schrodinger import ground_state

        g = build_grid("circle", 2 * np.pi, 1024)
        beta = ScalarField(g, 0.05 * (1.0 + np.cos(g.x)))
        gs = ground_state(beta)
        V = ScalarField(g, beta.values + gs.lambda0)
        cfg = StepperConfig(1e-3, 1.0, boundary=PERIODIC)
        u = gs.e0
        stepper = HeatStepper(g, V, cfg)
        for _ in range(100):
            u = stepper.step(u)
        defect = np.max(np.abs(u.values - gs.e0.values)) / 100
        assert defect <= 1e-6 * cfg.dt


class TestStepperErrors:
    def test_boundary_topology_mismatch(self):
        with pytest.raises(ValueError):
            HeatStepper(circle(64), None, StepperConfig(1e-3, 1.0, boundary=Dirichlet(0.0, 0.0)))
        with pytest.raises(ValueError):
            HeatStepper(build_grid("interval", 1.0, 64), None,
                        StepperConfig(1e-3, 1.0, boundary=PERIODIC))

    @pytest.mark.parametrize("kind", ["heat", "burgers", "series"])
    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_values_of_another_length_refused_before_any_solve(self, capfd, kind, topology,
                                                               rows):
        # a last axis of 10 values on a 16-node grid: refused with both lengths
        # by step's checks and by march's start, before dpttrs complains on
        # stderr or numpy fails to broadcast
        g = build_grid(topology, 1.0, 16)
        cfg = StepperConfig(1e-3, 1.0, boundary=PERIODIC if g.periodic else Dirichlet(1.0, 1.0))
        stepper = {"heat": lambda: HeatStepper(g, None, cfg),
                   "burgers": lambda: BurgersStepper(g, ScalarField(g, np.zeros(16)), cfg),
                   "series": lambda: HeatSeries(g, cfg)}[kind]()
        vals = np.ones(10 if rows is None else (rows, 10))
        tries = [lambda: march(stepper, vals, 1e-3, record_steps(1e-3, 0.01, 1))]
        if kind != "series":
            tries.append(lambda: stepper.step(vals))
        for attempt in tries:
            with pytest.raises(ValueError, match=r"shape \((3, )?10,?\) do not have the grid's 16 "
                                                 "points along the last axis"):
                attempt()
        assert capfd.readouterr() == ("", "")

    def test_dirichlet_field_must_match_boundary(self):
        g = build_grid("interval", 1.0, 64)
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=Dirichlet(0.0, 0.0)))
        with pytest.raises(ValueError):
            stepper.step(ScalarField(g, np.ones(64)))
        # march checks the initial state's ends once, by the stepper's start,
        # before the initial record
        recorded = []
        with pytest.raises(ValueError, match="Dirichlet"):
            march(stepper, np.ones(64), 1e-3, record_steps(1e-3, 0.01, 1),
                  on_record=lambda *args: recorded.append(args))
        assert recorded == []

    def test_singular_implicit_matrix_detected(self):
        # V = 2/dt makes (I - dt/2 (nu*Lap + V)) singular on the constants
        g = circle(64)
        dt = 1e-3
        V = ScalarField(g, np.full(64, 2.0 / dt))
        with pytest.raises(SolverSingular):
            HeatStepper(g, V, StepperConfig(dt, 1.0, boundary=PERIODIC))

    def test_config_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            StepperConfig(-1e-3, 1.0)
        with pytest.raises(ValueError):
            StepperConfig(1e-3, 0.0)


class TestPositiveDefinite:
    """The step matrix must be positive definite: each failure is typed."""

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    def test_indefinite_matrix_refused_with_its_reason(self, topology):
        # c*V = 1.5 everywhere: I - c*(Lap + V) is nonsingular but indefinite
        g = build_grid(topology, 1.0, 32)
        dt = 1e-2
        V = ScalarField(g, np.full(32, 1.5 / (0.5 * dt)))
        bnd = PERIODIC if topology == "circle" else Dirichlet(0.0, 0.0)
        with pytest.raises(SolverSingular, match="not positive definite: dt is too large"):
            HeatStepper(g, V, StepperConfig(dt, 1.0, boundary=bnd))

    def test_zero_corner_diagonal_refused_before_dividing(self):
        # h = 1, c = 1/2: the first diagonal entry 1 + 2c - c*V[0] is exactly 0,
        # and dividing by it would warn (an error under this suite's filters)
        g = build_grid("circle", 8.0, 8)
        V = ScalarField(g, np.where(np.arange(8) == 0, 4.0, 0.0))
        with pytest.raises(SolverSingular, match=r"not positive definite.*\(diagonal 0\)"):
            HeatStepper(g, V, StepperConfig(1.0, 1.0, boundary=PERIODIC))

    def test_tiny_pivot_refused(self):
        # positive definite, but one pivot is 1e-14 of the others: I - c*V at
        # node 4 with a diffusion too weak to lift it
        g = build_grid("interval", 1.0, 16)
        dt = 1e-3
        V = ScalarField(g, np.where(np.arange(16) == 4, (1.0 - 1e-14) / (0.5 * dt), 0.0))
        with pytest.raises(SolverSingular, match=r"\(smallest pivot \S+e-1[45], largest 1\)"):
            HeatStepper(g, V, StepperConfig(dt, 1e-20, boundary=Dirichlet(0.0, 0.0)))

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("kind, dt, nu", [("heat", 1e300, 1e300), ("heat", 1e-300, 1e-300),
                                              ("burgers", 1e300, 1e300),
                                              ("burgers", 1e-320, 1e-10)])
    def test_matrix_out_of_float_range_refused_without_a_warning(self, topology, kind, dt, nu):
        # the factored matrix is (I - c*A)/(2c*nu/h^2) for heat and /(2c) for
        # Burgers; past the float range its entries are inf or nan, which
        # must be refused before any arithmetic warns (an error here)
        g = build_grid(topology, 1.0, 16)
        cfg = StepperConfig(dt, nu, boundary=PERIODIC if topology == "circle"
                            else Dirichlet(1.0, 1.0))
        with pytest.raises(SolverSingular, match="out of floating-point range"):
            if kind == "heat":
                HeatStepper(g, None, cfg)
            else:
                BurgersStepper(g, ScalarField(g, np.zeros(16)), cfg)

    def test_one_negative_eigenvalue_on_a_circle_refused(self):
        # c*V = 1 + 1e-4 lifts only the constant mode above 1: the tridiagonal
        # part stays positive definite and Sherman-Morrison's denominator is
        # negative
        g = circle(64)
        dt = 1e-3
        V = ScalarField(g, np.full(64, (1.0 + 1e-4) / (0.5 * dt)))
        with pytest.raises(SolverSingular, match="Sherman-Morrison denominator -"):
            HeatStepper(g, V, StepperConfig(dt, 1.0, boundary=PERIODIC))


class TestDeltaForm:
    """A step adds an increment solved from the stencil of the state."""

    CASES = [(n, nu, dt) for n in (8, 37, 256, 1024, 4099) for nu in (0.3, 1.0)
             for dt in (1e-4, 3e-3, 0.1)]

    @pytest.mark.parametrize("kind", ["heat", "burgers"])
    def test_constant_is_an_exact_fixed_point_on_a_circle(self, kind):
        moved = []
        for n, nu, dt in self.CASES:
            g = build_grid("circle", 2 * np.pi, n)
            cfg = StepperConfig(dt, nu, boundary=PERIODIC)
            stepper = (HeatStepper(g, None, cfg) if kind == "heat"
                       else BurgersStepper(g, ScalarField(g, np.full(n, 0.7)), cfg))
            u0 = np.full(n, 1.0 / 3.0)
            u = u0
            for _ in range(10):
                u = stepper.step(u)
            if not np.array_equal(u, u0):
                moved.append((n, nu, dt))
        assert moved == []

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    def test_step_matches_dense_crank_nicolson(self, topology):
        # the dense matrices are the reference for the tridiagonal solves,
        # Sherman-Morrison on the circle included; c*max(V) = 0.5
        g = build_grid(topology, 1.0, 48)
        n, h, dt, nu = 48, g.spacing, 2e-3, 0.8
        c = 0.5 * dt
        rng = np.random.default_rng(5)
        V, u = (0.5 / c) * rng.uniform(-1.0, 1.0, n), rng.normal(size=n)
        A = nu * (np.eye(n, k=-1) + np.eye(n, k=1) - 2.0 * np.eye(n)) / h ** 2 + np.diag(V)
        if topology == "circle":
            A[0, -1] = A[-1, 0] = nu / h ** 2
            bnd = PERIODIC
        else:
            A[[0, -1], :] = 0.0
            bnd = Dirichlet(float(u[0]), float(u[-1]))
        ref = np.linalg.solve(np.eye(n) - c * A, (np.eye(n) + c * A) @ u)
        got = HeatStepper(g, ScalarField(g, V), StepperConfig(dt, nu, boundary=bnd)).step(u)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_circle_heat_conserves_mass_to_roundoff_of_the_increment(self):
        worst = {}
        for n in (8, 32, 128, 512, 1024):
            g = circle(n)
            for nu, dt in ((1.0, 1e-3), (1.0, 0.1), (0.5, 1e-2)):
                u0 = 1.0 + 0.5 * np.random.default_rng(n).random(n)
                stepper = HeatStepper(g, None, StepperConfig(dt, nu, boundary=PERIODIC))
                u = u0
                for _ in range(200):
                    u = stepper.step(u)
                drift = abs(np.sum(u) - np.sum(u0)) / np.sum(u0)
                worst[n] = max(worst.get(n, 0.0), drift)
        assert max(worst.values()) <= 1e-13, worst


def _reference_solver(grid, nu, V, c, unit):
    """M = (I - c*(nu*Lap + diag(V)))/(2c*unit) factored by dpttrf, as the
    steppers document it, and its solve d = M^-1 r: an interval's end rows
    decoupled, a circle's corners taken out by Sherman-Morrison, M = T +
    w*w^T/gamma with w = (gamma, 0, ..., off), and d = T^-1 r - (w0*d_0 +
    w1*d_{n-1})*z."""
    n, inv = grid.n_points, np.float64(nu) / (grid.spacing * grid.spacing)
    scale = 2.0 * c * unit
    diag = np.full(n, 1.0 + 2.0 * c * inv)
    if V is not None:
        diag -= c * V
    diag /= scale
    off = -c * inv / scale
    e = np.full(n - 1, off)
    if grid.periodic:
        gamma = -diag[0]
        diag[0], diag[-1] = diag[0] - gamma, diag[-1] - off * off / gamma
    else:
        diag[[0, -1]], e[[0, -1]] = 1.0, 0.0
    d, e, _ = dpttrf(diag, e)
    if not grid.periodic:
        return lambda r: dpttrs(d, e, r)[0]
    z = dpttrs(d, e, np.r_[gamma, np.zeros(n - 2), off])[0]
    dot = z[0] + (off / gamma) * z[-1]
    w0, w1 = 1.0 / (1.0 + dot), (off / gamma) / (1.0 + dot)

    def solve(r):
        x = dpttrs(d, e, r)[0]
        return x - (w0 * x[0] + w1 * x[-1]) * z
    return solve


def _reference_stencil(u, periodic):
    """(-2u_i + u_{i+1}) + u_{i-1}, a circle closed by u's other end; zero at
    an interval's ends."""
    if periodic:
        return -2.0 * u + np.roll(u, -1) + np.roll(u, 1)
    return np.r_[0.0, -2.0 * u[1:-1] + u[2:] + u[:-2], 0.0]


class TestStepBits:
    """50 steps into a given out array equal, bit for bit, the documented
    arithmetic written out here: the stencil's and the Sherman-Morrison
    correction's order of operations included."""

    STEPS = 50

    @staticmethod
    def _setup(topology, seed=11):
        g = build_grid(topology, 2 * np.pi if topology == "circle" else 1.0, 48)
        rng = np.random.default_rng(seed)
        u0 = 1.0 + 0.3 * rng.normal(size=48)
        # c*nu/h^2 about 2: an increment as large as the state, whose last bit
        # each rounding of the rhs moves
        cfg = StepperConfig(0.1, 0.7, boundary=PERIODIC if g.periodic
                            else Dirichlet(float(u0[0]), float(u0[-1])))
        return g, u0, cfg, 0.4 * rng.normal(size=48) / cfg.dt

    @staticmethod
    def _march(stepper, u0, steps):
        out = np.empty((steps, len(u0)))
        u = u0
        for row in out:
            u = stepper.step(u, row)
        return out

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("reaction", [True, False])
    def test_heat(self, topology, reaction):
        g, u0, cfg, V = self._setup(topology)
        V = V if reaction else None
        c, inv = 0.5 * cfg.dt, np.float64(cfg.diffusivity) / (g.spacing * g.spacing)
        solve = _reference_solver(g, cfg.diffusivity, V, c, inv)
        got = self._march(HeatStepper(g, None if V is None else ScalarField(g, V), cfg),
                          u0, self.STEPS)
        u = u0
        for k in range(self.STEPS):
            r = _reference_stencil(u, g.periodic)
            if V is not None:
                react = (V / inv) * u
                if not g.periodic:
                    react[[0, -1]] = 0.0
                r += react
            u = u + solve(r)
            assert np.array_equal(got[k], u), k
        assert np.isfinite(u).all() and not np.array_equal(got[-1], got[-2])

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    def test_burgers(self, topology):
        g, H0, cfg, forcing = self._setup(topology, seed=12)
        H0 = 0.1 * H0
        forcing = forcing * cfg.dt
        nu, h = cfg.diffusivity, g.spacing
        inv = np.float64(nu) / (h * h)
        half = _reference_solver(g, nu, None, 0.25 * cfg.dt, 1.0)
        full = _reference_solver(g, nu, None, 0.5 * cfg.dt, 1.0)
        force_x = nu * nu * _diff1(forcing, h, g.periodic)

        def advect(v):
            sq = v * v
            adv = (np.roll(sq, -1) - np.roll(sq, 1)) / (-2.0 * h) - force_x
            return adv if g.periodic else np.r_[0.0, adv[1:-1], 0.0]

        got = self._march(BurgersStepper(g, ScalarField(g, forcing), cfg), H0, self.STEPS)
        H = H0
        for k in range(self.STEPS):
            dif = _reference_stencil(H, g.periodic) * inv
            mid = H + half(advect(H) + dif)
            H = H + full(dif + advect(mid))
            assert np.array_equal(got[k], H), k
        assert np.isfinite(H).all() and not np.array_equal(got[-1], got[-2])


class _CountingNumpy:
    """parabolic's np, counting the calls made through it by name."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return attr(*args, **kwargs)
        return counted


class TestStepCalls:
    """A step of one field makes few numpy calls around its solves: each call
    costs about a microsecond at any size, as much as the arithmetic of a
    256-node stencil, so a step written with per-corner or per-scalar ufuncs
    shows here without any timing."""

    BUDGETS = {"heat": (8, 1), "burgers": (20, 2)}

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("kind", ["heat", "burgers"])
    def test_numpy_and_lapack_calls_a_step(self, monkeypatch, topology, kind):
        from collections import Counter

        g = build_grid(topology, 1.0, 64)
        u = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)
        cfg = StepperConfig(1e-3, 1.0, boundary=PERIODIC if g.periodic
                            else Dirichlet(float(u[0]), float(u[-1])))
        field = ScalarField(g, np.cos(2 * np.pi * g.x))
        stepper = HeatStepper(g, field, cfg) if kind == "heat" else BurgersStepper(g, field, cfg)
        calls, solves = Counter(), Counter()
        dpttrs = parabolic.dpttrs

        def counted_dpttrs(*args):
            solves["dpttrs"] += 1
            return dpttrs(*args)

        want = stepper.step(u, np.empty_like(u))
        monkeypatch.setattr(parabolic, "np", _CountingNumpy(calls))
        monkeypatch.setattr(parabolic, "dpttrs", counted_dpttrs)
        got = stepper.step(u, np.empty_like(u))
        monkeypatch.undo()
        assert np.array_equal(got, want)
        numpy_budget, solve_budget = self.BUDGETS[kind]
        assert sum(calls.values()) <= numpy_budget, calls
        assert solves["dpttrs"] == solve_budget


class TestIntervalEndsAndPivots:
    """Interval ends are held by the operator's zero end rows, bit for bit."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_heat_holds_ends_bit_equal(self, scheme):
        g = build_grid("interval", 1.0, 4097)
        u0 = ScalarField(g, 0.5 + 0.3 * g.x + 0.1 * np.sin(np.pi * g.x))
        # a reaction that is nonzero at the ends must not move them either
        V = ScalarField(g, 0.4 * np.cos(np.pi * g.x))
        bnd = Dirichlet(float(u0.values[0]), float(u0.values[-1]))
        stepper = HeatStepper(g, V, StepperConfig(1e-4, 1.0, scheme, bnd))
        u = u0
        for _ in range(2000):
            u = stepper.step(u)
            assert (u.values[0], u.values[-1]) == (u0.values[0], u0.values[-1])
        assert not np.array_equal(u.values[1:-1], u0.values[1:-1])

    def test_burgers_holds_ends_and_is_consistent(self):
        # one step's difference quotient against nu*H_xx - (H^2)_x - nu^2*f_x
        g = build_grid("interval", 1.0, 129)
        nu, h = 0.7, g.spacing
        H0 = VectorAlongFiber(g, 0.2 + 0.1 * g.x + 0.3 * np.sin(2 * np.pi * g.x))
        f = ScalarField(g, 0.5 * np.cos(np.pi * g.x))
        rhs = (nu * _diff2(H0.values, h, False) - _diff1(H0.values ** 2, h, False)
               - nu * nu * _diff1(f.values, h, False))
        bnd = Dirichlet(float(H0.values[0]), float(H0.values[-1]))
        errs = []
        for dt in (2e-6, 1e-6):
            H1 = BurgersStepper(g, f, StepperConfig(dt, nu, boundary=bnd)).step(H0)
            assert (H1.values[0], H1.values[-1]) == (H0.values[0], H0.values[-1])
            errs.append(np.max(np.abs((H1.values - H0.values) / dt - rhs)[1:-1]))
        assert errs[0] <= 1e4 * 2e-6
        assert errs[0] / errs[1] >= 1.8

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("c_vmax", [1.5, 4.0, 30.0])
    def test_non_dominant_step_matches_dense_solve(self, topology, c_vmax):
        # c*max(V) > 1: I - c*A is not diagonally dominant, so elimination on
        # diagonal pivots is no longer guaranteed stable; it must still agree
        # with a pivoted dense solve, or refuse with a FolflowError
        length = 2 * np.pi if topology == "circle" else 1.0
        g = build_grid(topology, length, 64)
        n, h, dt = 64, g.spacing, 1e-2
        c = 0.5 * dt
        V = (c_vmax / c) * (0.75 + 0.25 * np.cos(2 * np.pi * g.x / length))
        u = 1.0 + 0.3 * np.sin(2 * np.pi * g.x / length)
        A = (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
             - 2.0 * np.eye(n)) / h ** 2 + np.diag(V)
        if topology == "circle":
            A[0, -1] = A[-1, 0] = 1.0 / h ** 2
            bnd = PERIODIC
        else:
            A[[0, -1], :] = 0.0
            bnd = Dirichlet(float(u[0]), float(u[-1]))
        eye = np.eye(n)
        ref = np.linalg.solve(eye - c * A, (eye + c * A) @ u)
        try:
            stepper = HeatStepper(g, ScalarField(g, V), StepperConfig(dt, 1.0, boundary=bnd))
            got = stepper.step(ScalarField(g, u)).values
        except FolflowError:
            return
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class _Count(parabolic._Stepper):
    """A fake stepper whose state k is k after step k, filled by _Stepper's
    stepping; the step from fails_after writes inf, as a step that fails does."""

    def __init__(self, fails_after=None):
        self.fails_after = fails_after

    def step(self, u, out):
        # out may be u itself
        return np.add(u, np.inf if u[0] == self.fails_after else 1.0, out)


class TestEvolveDriver:
    """march, the one time-marching loop, driving a heat stepper."""

    def test_zero_horizon_records_initial_state_only(self):
        g = circle(64)
        u0 = ScalarField(g, np.ones(64))
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        recs = []
        march(stepper, u0.values, 1e-3, record_steps(1e-3, 0.0, 1),
              on_record=lambda ts, block, rows: recs.extend(zip(ts[rows], block[rows])))
        assert len(recs) == 1 and recs[0][0] == 0.0

    def test_records_and_monitors(self):
        g = circle(64)
        u0 = ScalarField(g, 2.0 + np.cos(g.x))
        stepper = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        recs = []

        def span(ts, block, rows):
            recs.extend((t, float(np.max(u) - np.min(u))) for t, u in zip(ts[rows], block[rows]))

        march(stepper, u0.values, 1e-3, record_steps(1e-3, 0.1, 20), on_record=span)
        assert [t for t, _ in recs] == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
        spans = [s for _, s in recs]
        assert all(a > b for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("reject", [None, 10])
    def test_failures_surface_in_step_order(self, monkeypatch, rows, reject):
        # the 12th step fails; a block hook that rejects the state after
        # step 10 wins, since the rows before a failing step are still checked;
        # the block hook sees the initial state first, as a block of its own
        # blocks of `rows` states of 3 values
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 3 * rows)
        seen, records = [], []

        def on_block(ts, block):
            seen.extend(ts)
            bad = np.flatnonzero(block[:, 0] == reject)
            return (int(bad[0]), NonFiniteValue("state rejected")) if bad.size else None

        with pytest.raises(FolflowError) as exc:
            march(_Count(fails_after=11.0), np.zeros(3), 0.5, record_steps(0.5, 10.0, 4), on_block,
                  lambda ts, block, rows: records.extend(zip(ts[rows], block[rows, 0])))
        if reject is None:
            assert str(exc.value) == "implicit step produced non-finite values (failure at t = 6)"
            assert seen == pytest.approx(0.5 * np.arange(0, 12))
        else:
            assert str(exc.value) == "state rejected (failure at t = 5)"
        assert records == [(0.0, 0.0), (2.0, 4.0), (4.0, 8.0)]

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("bad_record, reject, error, kept", [
        # a record rejected before a monitor failure in the same block wins
        (6.0, 8.0, "record rejected (failure at t = 3)", [0.0, 2.0, 4.0]),
        # a monitor failure on a record's own row wins over that record
        (8.0, 8.0, "state rejected (failure at t = 4)", [0.0, 2.0, 4.0, 6.0]),
        # a monitor failure between records keeps the records before it
        (None, 7.0, "state rejected (failure at t = 3.5)", [0.0, 2.0, 4.0, 6.0]),
    ], ids=["record_first", "monitor_on_record", "monitor_between"])
    def test_records_inside_a_block_fail_in_step_order(self, monkeypatch, rows, bad_record,
                                                       reject, error, kept):
        # state k after step k, recorded every 2 steps; the record hook takes
        # the records before the one it rejects
        # blocks of `rows` states of 3 values
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 3 * rows)
        seen, records = [], []

        def on_block(ts, block):
            bad = np.flatnonzero(block[:, 0] == reject)
            return (int(bad[0]), NonFiniteValue("state rejected")) if bad.size else None

        def on_record(ts, block, rows):
            seen.extend(block[rows, 0])
            for i, u in enumerate(block[rows, 0]):
                if u == bad_record:
                    return i, NonFiniteValue("record rejected")
                records.append(u)

        with pytest.raises(FolflowError) as exc:
            march(_Count(), np.zeros(3), 0.5, record_steps(0.5, 10.0, 2), on_block, on_record)
        assert str(exc.value) == error
        assert records == kept
        assert reject not in seen

    def test_the_record_hook_takes_a_block_in_chunks_of_64(self, monkeypatch):
        # 201 records, one a step: the initial state's block, then one block
        # of 200 states of 3 values, whose records come 64 at a time
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 3 * 200)
        blocks, calls = [], []
        march(_Count(), np.zeros(3), 0.5, record_steps(0.5, 100.0, 1),
              lambda ts, block: blocks.append(len(block)),
              lambda ts, block, rows: calls.append(block[rows, 0].tolist()))
        assert blocks == [1, 200]
        assert [len(call) for call in calls] == [1, 64, 64, 64, 8]
        assert sum(calls, []) == list(range(201))

    @pytest.mark.parametrize("bad_record, reject, error, last_seen", [
        # a record rejected in the second chunk wins over a monitor failure
        # in the third, which the record hook never sees
        (200.0, 300.0, "record rejected (failure at t = 100)", 256.0),
        # a monitor failure on a second-chunk record's row wins over that record
        (200.0, 200.0, "state rejected (failure at t = 100)", 198.0),
        # a monitor failure between second-chunk records keeps the records before it
        (None, 201.0, "state rejected (failure at t = 100.5)", 200.0),
    ], ids=["record_first", "monitor_on_record", "monitor_between"])
    def test_records_fail_in_step_order_across_chunks(self, monkeypatch, bad_record, reject,
                                                      error, last_seen):
        # state k after step k, recorded every 2 steps; one block of 400
        # states holds 200 records, in chunks of 64: the second chunk holds
        # the records of steps 130 to 256
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 3 * 400)
        seen, records = [], []

        def on_block(ts, block):
            bad = np.flatnonzero(block[:, 0] == reject)
            return (int(bad[0]), NonFiniteValue("state rejected")) if bad.size else None

        def on_record(ts, block, rows):
            seen.extend(block[rows, 0])
            for i, u in enumerate(block[rows, 0]):
                if u == bad_record:
                    return i, NonFiniteValue("record rejected")
                records.append(u)

        with pytest.raises(FolflowError) as exc:
            march(_Count(), np.zeros(3), 0.5, record_steps(0.5, 200.0, 2), on_block, on_record)
        assert str(exc.value) == error
        assert records == list(range(0, 200 if bad_record else 201, 2))
        assert seen[-1] == last_seen

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_overflowing_step_fails_at_its_time_and_keeps_the_records_before(self, monkeypatch,
                                                                             rows):
        # c*V = 0.95 multiplies u by 39 a step, so step 194 overflows: only its
        # own overflow is let through, and the steps past it that a block runs
        # on inf and nan must raise no warning of their own
        # blocks of `rows` states of 16 values
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 16 * rows)
        g, dt = build_grid("circle", 1.0, 16), 0.1
        stepper = HeatStepper(g, ScalarField(g, np.full(16, 19.0)),
                              StepperConfig(dt, 1e-3, boundary=PERIODIC))
        u0 = 1.0 + 0.5 * np.cos(2 * np.pi * g.x)
        alone, records = [u0], []
        with np.errstate(over="ignore"):
            for _ in range(193):
                alone.append(stepper.step(alone[-1]))
            with pytest.raises(SolverSingular, match="^implicit step produced non-finite values$"):
                stepper.step(alone[-1])
            with pytest.raises(SolverSingular) as exc:
                march(stepper, u0, dt, record_steps(dt, 30.0, 10), on_record=lambda ts, block, rows:
                      records.extend(zip(ts[rows], block[rows])))
        assert str(exc.value) == "implicit step produced non-finite values (failure at t = 19.4)"
        assert [t for t, _ in records] == pytest.approx(dt * np.arange(0, 194, 10))
        for (_, u), step in zip(records, range(0, 194, 10)):
            assert np.array_equal(u, alone[step])

    @pytest.mark.parametrize("dt, t_end, message", [
        (1e-3, -1.0, "t_end must be nonnegative"),
        # within 1e-9 * dt of 0 steps, but a positive horizon takes at least one
        (1e-3, 1e-13, "t_end = 1e-13 is not a whole number of dt = 0.001 steps"),
        (1e-3, 1.0005, "t_end = 1.0005 is not a whole number of dt = 0.001 steps"),
        # refused before a step count or a record is formed
        (1.0, 2.0 ** 54, "t_end = 1.8014398509481984e+16 is more than 2**53 steps of dt = 1.0"),
        (1e-300, 1e300, "t_end = 1e+300 is more than 2**53 steps of dt = 1e-300"),
    ])
    def test_record_steps_refuses_a_schedule_march_cannot_keep(self, dt, t_end, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parabolic.record_steps(dt, t_end, 1)


class TestHeatSymbol:
    """heat_symbol and HeatSeries: HeatStepper's records in closed form."""

    @staticmethod
    def _records(step, u0, dt, t_end, every, on_block=None):
        records = []

        def keep(ts, block, rows):
            records.extend(zip(ts[rows], block[rows]))

        march(step, u0, dt, record_steps(dt, t_end, every), on_block, keep)
        return records

    def _agree(self, g, cfg, u0):
        stepped = self._records(HeatStepper(g, None, cfg), u0, cfg.dt, 40 * cfg.dt, 10)
        symbol = heat_symbol(g, cfg)
        closed = self._records(HeatSeries(g, cfg), u0, cfg.dt, 40 * cfg.dt, 10)
        assert np.all(np.abs(symbol) <= 1.0)
        assert [t for t, _ in closed] == [t for t, _ in stepped]
        assert closed[0][1] is not u0 and np.array_equal(closed[0][1], u0)
        scale = np.max(np.abs(u0))
        for (_, want), (_, got) in zip(stepped, closed):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        return symbol, closed

    @pytest.mark.parametrize("n", [8, 64, 4096])
    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 600.0])
    def test_records_agree_with_heat_steps(self, n, ratio):
        # dt*nu/h^2 from far below 1 to fine_grid's twisted run, on noise,
        # which holds every mode the stencil has
        g, nu = circle(n), 2.0
        cfg = StepperConfig(ratio * g.spacing ** 2 / nu, nu, boundary=PERIODIC)
        symbol, _ = self._agree(g, cfg, 1.0 + np.random.default_rng(n).standard_normal((2, n)))
        assert symbol[0] == 1.0

    @pytest.mark.parametrize("n", [8, 201, 1025])
    @pytest.mark.parametrize("ratio", [1e-3, 4.0, 600.0])
    def test_interval_records_agree_with_heat_steps(self, n, ratio):
        # noise between held ends of two sizes, dt*nu/h^2 = 4 as surface_bump's
        g, nu = build_grid("interval", 1.0, n), 2.0
        u0 = 1.0 + np.random.default_rng(n).standard_normal((2, n))
        u0[:, 0], u0[:, -1] = 0.3, 7.0
        cfg = StepperConfig(ratio * g.spacing ** 2 / nu, nu, boundary=Dirichlet(0.3, 7.0))
        symbol, closed = self._agree(g, cfg, u0)
        assert len(symbol) == n - 2 and np.all(symbol < 1.0)
        for _, u in closed:
            assert np.all(u[:, 0] == 0.3) and np.all(u[:, -1] == 7.0)

    @pytest.mark.parametrize("shape, topology", [
        ((3, 256), "circle"), ((2, 32), "circle"), ((40,), "circle"),
        ((201,), "interval"), ((2, 33), "interval")])
    def test_records_are_the_same_bits_whatever_the_block_holds(self, monkeypatch, shape,
                                                                 topology):
        # 130 steps, every one recorded, so powers 0..63 and quotients 0, 1
        # and 2 meet in blocks of every length; with a block hook, every
        # step fills a row, without one only the records do
        g = build_grid(topology, 2 * np.pi, shape[-1])
        u0 = 1.0 + 0.3 * np.cos(g.x) + 0.01 * np.random.default_rng(1).standard_normal(shape)
        bnd = PERIODIC if g.periodic else Dirichlet(0.0, 0.0)
        if not g.periodic:
            u0[..., [0, -1]] = 0.0
        series = HeatSeries(g, StepperConfig(1e-3, 2.0, boundary=bnd))
        runs = []
        for rows in (1, 7, 64):
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", rows * u0.size)
            for on_block in (None, lambda ts, block: None):
                runs.append(self._records(series, u0, 1e-3, 0.13, 1, on_block))
        assert len(runs[0]) == 131
        for run in runs[1:]:
            assert len(run) == 131
            for (t, one), (t_other, other) in zip(runs[0], run):
                assert t == t_other and np.array_equal(one, other)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_failures_keep_the_records_before_and_carry_their_time(self, monkeypatch, rows):
        # a symbol of 1e10 overflows at step 31; a record hook that rejects
        # the record of step 20 wins, being earlier
        # blocks of `rows` states of 8 values
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 8 * rows)
        monkeypatch.setattr(parabolic, "heat_symbol", lambda grid, cfg: np.full(5, 1e10))
        series = HeatSeries(circle(8), StepperConfig(0.5, 1.0, boundary=PERIODIC))
        u0 = np.ones(8)
        kept = []
        with pytest.raises(SolverSingular) as exc:
            march(series, u0, 0.5, record_steps(0.5, 50.0, 1), on_record=lambda ts, block, rows:
                  kept.extend(ts[rows]))
        assert str(exc.value) == "implicit step produced non-finite values (failure at t = 15.5)"
        assert kept == pytest.approx(0.5 * np.arange(31))

        def reject(ts, block, rows):
            bad = np.flatnonzero(ts[rows] == 10.0)
            return (int(bad[0]), NonFiniteValue("record rejected")) if bad.size else None

        with pytest.raises(NonFiniteValue, match=r"^record rejected \(failure at t = 10\)$"):
            march(series, u0, 0.5, record_steps(0.5, 50.0, 1), on_record=reject)

    @pytest.mark.parametrize("length, dt", [(1e-160, 1e300), (1e160, 1e-300)],
                             ids=["overflow", "zero"])
    def test_refuses_what_heat_stepper_refuses(self, length, dt):
        # c*nu/h^2 out of float range or zero, refused before it overflows:
        # a RuntimeWarning would fail this test
        for topology, bnd in (("circle", PERIODIC), ("interval", Dirichlet(1.0, 2.0))):
            g, cfg = build_grid(topology, length, 16), StepperConfig(dt, 2.0, boundary=bnd)
            with pytest.raises(SolverSingular) as stepper:
                HeatStepper(g, None, cfg)
            with pytest.raises(SolverSingular) as symbol:
                heat_symbol(g, cfg)
            assert str(symbol.value) == str(stepper.value)
            assert str(symbol.value).startswith(
                "implicit step matrix is out of floating-point range")

    def test_refuses_a_boundary_of_the_other_topology(self):
        # with HeatStepper's message
        circ, line = circle(16), build_grid("interval", 1.0, 16)
        for g, bnd in ((line, PERIODIC), (circ, Dirichlet(0.0, 0.0))):
            cfg = StepperConfig(1e-3, 1.0, boundary=bnd)
            with pytest.raises(ValueError) as stepper:
                HeatStepper(g, None, cfg)
            for make in (heat_symbol, HeatSeries):
                with pytest.raises(ValueError) as closed:
                    make(g, cfg)
                assert str(closed.value) == str(stepper.value)

    def test_refuses_ends_off_the_boundary_as_heat_stepper_does(self):
        # the ends march holds are the state's, checked against the Dirichlet
        # data by start; within 1e-9 of scale they pass and are held
        g = build_grid("interval", 1.0, 16)
        cfg = StepperConfig(1e-3, 1.0, boundary=Dirichlet(1.0, 2.0))
        u0 = np.linspace(1.0, 2.0, 16) + 0.1 * np.sin(np.pi * g.x)
        for off, held in ((1e-3, None), (1e-10, True)):
            u0[-1] = 2.0 + off
            for step in (HeatStepper(g, None, cfg), HeatSeries(g, cfg)):
                if held is None:
                    with pytest.raises(ValueError, match="^field does not match the Dirichlet "
                                                         "boundary values$"):
                        march(step, u0, 1e-3, record_steps(1e-3, 5e-3, 1))
                else:
                    assert march(step, u0, 1e-3, record_steps(1e-3, 5e-3, 1))[-1] == u0[-1]


class TestBurgersStepper:
    def test_matches_log_derivative_of_heat_flow(self):
        # with forcing off, the velocity of a positive heat solution obeys
        # the quadratic transport law; evolve both and compare at t = 0.5
        g = circle(256)
        nu = 1.0
        u0 = ScalarField(g, 2.0 + np.cos(g.x))
        zero = ScalarField(g, np.zeros(256))
        cfg = StepperConfig(1e-3, nu, boundary=PERIODIC)
        heat = HeatStepper(g, None, cfg)
        burg = BurgersStepper(g, zero, cfg)
        u, H = u0, grad_log(u0, -nu)
        for _ in range(500):
            u = heat.step(u)
            H = burg.step(H)
        assert np.max(np.abs(H.values - grad_log(u, -nu).values)) <= 1e-4

    def test_second_order_under_joint_refinement(self):
        def sup_diff(n, dt):
            g = build_grid("circle", 2 * np.pi, n)
            nu = 2.0
            forcing = ScalarField(g, 0.2 * (1.0 + np.cos(g.x)))
            u0 = ScalarField(g, 2.0 + np.cos(g.x))
            cfg = StepperConfig(dt, nu, boundary=PERIODIC)
            heat = HeatStepper(g, ScalarField(g, nu * forcing.values), cfg)
            burg = BurgersStepper(g, forcing, cfg)
            u, H = u0, grad_log(u0, -nu)
            worst = 0.0
            for _ in range(int(round(0.5 / dt))):
                u = heat.step(u)
                H = burg.step(H)
                worst = max(worst, float(np.max(np.abs(H.values - grad_log(u, -nu).values))))
            return worst

        coarse = sup_diff(256, 1e-3)
        fine = sup_diff(512, 5e-4)
        assert coarse <= 1e-3
        assert np.log2(coarse / fine) >= 1.8
