"""Metamorphic properties of the steppers, the stencils, the Schrodinger
operator and the Cole-Hopf transform.

Each property follows from the structure of the equations, not from stored
reference data: linearity, translation and reflection symmetry on a circle,
the conservation laws, held interval ends, equality of blocked and
one-field evaluation, the spectral shift and lower bound, and the gauge
freedom u -> c*u of the transform.

Roundoff tolerances come from the condition of the step.  A Crank-Nicolson
step forms B @ u with B = I + c*A and solves with M = I - c*A, c = dt/2,
A = nu*Lap + diag(V).  M is diagonally dominant by rows with margin
1 - c*max(V) while c*max(V) < 1, so ||M^-1||_inf <= 1 / (1 - c*max(V)), and
||B||_inf <= 1 + c*(4*nu/h^2 + max|V|).  A computed step is then off by at
most UNITS * eps * ||B|| * ||M^-1|| * ||u||_inf.  UNITS bounds the rounded
operations per row, 3 in B @ u and 2 in each of the forward and back
substitutions, times 2 for the growth factor of an elimination without
pivoting on a diagonally dominant matrix: 2 * (3 + 2 + 2) = 14, rounded up.

Symmetric eigenvalues are perfectly conditioned: a backward error E moves
each one by at most ||E||_2 (Weyl), and the unit ground state by at most
||E||_2 / gap (Davis-Kahan).  Assembly rounds each diagonal entry, and the
dense solve and the shift-invert solve about sigma are backward stable, so
||E||_2 <= UNITS * eps * (||A||_2 + |sigma|), with ||A||_2 <= 4/h^2 + max|f|
by Gershgorin; at the sizes drawn here (n <= 64) the growth of the solvers'
constants with n stays inside UNITS.  A sampled log(u) is off by at most
eps * (1 + |log u|): one rounding of the product c*u, one of the log.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from folflow.fiber import (ScalarField, VectorAlongFiber, _diff1, _diff2, build_grid, grad_log,
                           integrate)
from folflow.parabolic import PERIODIC, BurgersStepper, Dirichlet, HeatStepper, StepperConfig
from folflow.scenarios import cole_hopf_rows
from folflow.schrodinger import ground_state, spectrum

EPS = np.finfo(float).eps
UNITS = 16

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def _case(draw, topology):
    """A grid, a time step, a diffusivity and a random generator for the fields."""
    n = draw(st.integers(8, 48))
    length = draw(st.sampled_from([1.0, 2 * np.pi, 7.5]))
    grid = build_grid(topology, length, n)
    nu = draw(st.sampled_from([0.1, 1.0, 2.5]))
    # from a tenth to ten times the explicit stability limit h^2 / (2 nu)
    dt = draw(st.sampled_from([0.1, 1.0, 10.0])) * grid.spacing ** 2 / (2 * nu)
    return grid, dt, nu, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


@st.composite
def heat_cases(draw, topology="circle", reaction=True):
    grid, dt, nu, rng = _case(draw, topology)
    # reaction up to c*max(V) = 0.5, keeping M diagonally dominant
    vmax = 0.5 / (0.5 * dt) if reaction else 0.0
    V = vmax * rng.uniform(-1.0, 1.0, grid.n_points)
    return grid, dt, nu, V, rng


def heat_condition(grid, dt, nu, V) -> float:
    """||B||_inf * ||M^-1||_inf of the heat step (module docstring)."""
    c = 0.5 * dt
    plus = 1.0 + c * (4.0 * nu / grid.spacing ** 2 + np.max(np.abs(V)))
    return plus / (1.0 - c * max(np.max(V), 0.0))


def heat(grid, dt, nu, V, boundary=PERIODIC):
    return HeatStepper(grid, ScalarField(grid, V), StepperConfig(dt, nu, boundary=boundary))


def burgers_scale(grid, dt, nu, H, forcing) -> float:
    """Size of the terms a Burgers step sums: H, dt*D@H with ||D|| = 4 nu/h^2,
    and the explicit stage dt*((H^2)_x + nu^2 f_x) with ||N|| = 1/h; M^-1 has
    norm at most 1 with no reaction."""
    size, force_x = np.max(np.abs(H)), nu * nu * np.max(np.abs(forcing)) / grid.spacing
    return (size * (1.0 + dt * 4.0 * nu / grid.spacing ** 2)
            + dt * (size * size / grid.spacing + force_x))


def burgers(grid, dt, nu, forcing):
    return BurgersStepper(grid, ScalarField(grid, forcing), StepperConfig(dt, nu))


def reflect(vals):
    """x -> -x on a circle: node i goes to node -i mod n."""
    return vals[(-np.arange(vals.shape[-1])) % vals.shape[-1]]


class TestHeatStep:
    @PROPERTY
    @given(case=heat_cases(), coeffs=st.tuples(st.floats(-4, 4), st.floats(-4, 4)))
    def test_linear(self, case, coeffs):
        grid, dt, nu, V, rng = case
        a, b = coeffs
        u, v = rng.normal(size=(2, grid.n_points))
        step = heat(grid, dt, nu, V).step
        defect = np.max(np.abs(step(a * u + b * v) - (a * step(u) + b * step(v))))
        size = abs(a) * np.max(np.abs(u)) + abs(b) * np.max(np.abs(v))
        assert defect <= 3 * UNITS * EPS * heat_condition(grid, dt, nu, V) * size

    @PROPERTY
    @given(case=heat_cases(), shift=st.integers(1, 47))
    def test_commutes_with_roll_on_circle(self, case, shift):
        grid, dt, nu, V, rng = case
        u = rng.normal(size=grid.n_points)
        rolled = heat(grid, dt, nu, np.roll(V, shift)).step(np.roll(u, shift))
        defect = np.max(np.abs(rolled - np.roll(heat(grid, dt, nu, V).step(u), shift)))
        assert defect <= 2 * UNITS * EPS * heat_condition(grid, dt, nu, V) * np.max(np.abs(u))

    @PROPERTY
    @given(case=heat_cases())
    def test_commutes_with_reflection_on_circle(self, case):
        grid, dt, nu, V, rng = case
        u = rng.normal(size=grid.n_points)
        mirrored = heat(grid, dt, nu, reflect(V)).step(reflect(u))
        defect = np.max(np.abs(mirrored - reflect(heat(grid, dt, nu, V).step(u))))
        assert defect <= 2 * UNITS * EPS * heat_condition(grid, dt, nu, V) * np.max(np.abs(u))

    @PROPERTY
    @given(case=heat_cases(reaction=False))
    def test_conserves_mass_without_reaction(self, case):
        # the circle Laplacian's columns sum to zero, so 1^T B = 1^T M = 1^T
        grid, dt, nu, V, rng = case
        u = rng.normal(size=grid.n_points)
        new = heat(grid, dt, nu, V).step(ScalarField(grid, u))
        drift = abs(integrate(new) - integrate(ScalarField(grid, u)))
        bound = 2 * UNITS * EPS * heat_condition(grid, dt, nu, V) * grid.length
        assert drift <= bound * np.max(np.abs(u))

    @PROPERTY
    @given(case=heat_cases("interval"))
    def test_holds_interval_ends_bit_for_bit(self, case):
        grid, dt, nu, V, rng = case
        u = rng.normal(size=grid.n_points)
        new = heat(grid, dt, nu, V, Dirichlet(u[0], u[-1])).step(u)
        assert (new[0], new[-1]) == (u[0], u[-1])


class TestBurgersStep:
    @PROPERTY
    @given(case=heat_cases(reaction=False), shift=st.integers(1, 47))
    def test_commutes_with_roll_on_circle(self, case, shift):
        grid, dt, nu, _, rng = case
        H, f = rng.normal(size=(2, grid.n_points))
        rolled = burgers(grid, dt, nu, np.roll(f, shift)).step(np.roll(H, shift))
        defect = np.max(np.abs(rolled - np.roll(burgers(grid, dt, nu, f).step(H), shift)))
        assert defect <= 4 * UNITS * EPS * burgers_scale(grid, dt, nu, H, f)

    @PROPERTY
    @given(case=heat_cases(reaction=False))
    def test_conserves_integral_on_circle(self, case):
        # every term is a derivative: a difference stencil sums to zero
        grid, dt, nu, _, rng = case
        H, f = rng.normal(size=(2, grid.n_points))
        new = burgers(grid, dt, nu, f).step(VectorAlongFiber(grid, H))
        drift = abs(integrate(new) - integrate(VectorAlongFiber(grid, H)))
        assert drift <= 4 * UNITS * EPS * grid.length * burgers_scale(grid, dt, nu, H, f)


class TestShapes:
    @PROPERTY
    @given(case=heat_cases(), topology=st.sampled_from(["circle", "interval"]),
           kind=st.sampled_from(["heat", "burgers"]), m=st.integers(1, 5))
    def test_rows_step_like_single_fields(self, case, topology, kind, m):
        # a block of fields, one per row, steps each row as it steps alone:
        # into a new array, into a given out array, and in place
        circle, dt, nu, V, rng = case
        grid = build_grid(topology, circle.length, circle.n_points)
        block = rng.normal(size=(m, grid.n_points))
        boundary = PERIODIC
        if topology == "interval":
            block[:, 0], block[:, -1] = 0.3, -0.7
            boundary = Dirichlet(0.3, -0.7)
        cfg = StepperConfig(dt, nu, boundary=boundary)
        field = ScalarField(grid, V)
        stepper = (HeatStepper(grid, field, cfg) if kind == "heat"
                   else BurgersStepper(grid, field, cfg))
        each = [stepper.step(row.copy()) for row in block]
        into, in_place = np.full_like(block, np.nan), block.copy()
        stepper.step(block, into)
        stepper.step(in_place, in_place)
        for stepped in (stepper.step(block), into, in_place):
            for i in range(m):
                assert np.array_equal(stepped[i], each[i]), i

    @PROPERTY
    @given(topology=st.sampled_from(["circle", "interval"]), rows=st.integers(1, 9),
           n=st.integers(8, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_stencils_on_a_block_act_row_by_row(self, topology, rows, n, seed):
        grid = build_grid(topology, 1.0, n)
        block = np.random.default_rng(seed).normal(size=(rows, n))
        for diff in (_diff1, _diff2):
            each = np.array([diff(row.copy(), grid.spacing, grid.periodic) for row in block])
            assert np.array_equal(diff(block, grid.spacing, grid.periodic), each)


@st.composite
def potentials(draw, topology=st.sampled_from(["circle", "interval"])):
    """A grid, a random potential of size 0.1 to 10 about a random offset, rough
    or nearly flat (where lambda0 is near -max(f)), and a constant of that size."""
    grid = build_grid(draw(topology), draw(st.sampled_from([1.0, 2 * np.pi, 7.5])),
                      draw(st.integers(16, 64)))
    amp = draw(st.sampled_from([0.1, 1.0, 10.0]))
    noise = draw(st.sampled_from([0.01, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset, c = amp * rng.uniform(-5.0, 5.0, size=2)
    return grid, offset + noise * amp * rng.normal(size=grid.n_points), c


def eigen_scale(grid, f) -> float:
    """||A||_2 + |sigma| for A = -Lap - diag(f) and the Lanczos shift -max(f) - 1."""
    return 4.0 / grid.spacing ** 2 + np.max(np.abs(f)) + abs(np.max(f)) + 1.0


def mirror(grid, vals):
    """The reflection that maps the grid onto itself."""
    return reflect(vals) if grid.periodic else vals[::-1]


class TestSchrodingerOperator:
    @PROPERTY
    @given(case=potentials())
    def test_constant_shifts_lambda0(self, case):
        grid, f, c = case
        moved = ground_state(ScalarField(grid, f + c)).lambda0
        defect = abs(moved - (ground_state(ScalarField(grid, f)).lambda0 - c))
        assert defect <= UNITS * EPS * (eigen_scale(grid, f) + eigen_scale(grid, f + c))

    @PROPERTY
    @given(case=potentials())
    def test_reflected_potential_has_the_same_spectrum(self, case):
        grid, f, _ = case
        m = 6
        same = spectrum(ScalarField(grid, mirror(grid, f)), m).eigenvalues
        defect = np.max(np.abs(same - spectrum(ScalarField(grid, f), m).eigenvalues))
        assert defect <= 2 * UNITS * EPS * eigen_scale(grid, f)

    @PROPERTY
    @given(case=potentials(topology=st.just("circle")))
    def test_constant_potential_has_constant_ground_state(self, case):
        # a constant is the unit ground state 1/sqrt(L); the error in the
        # discrete unit vector is divided by sqrt(h) in the field's L2 scaling
        grid, _, c = case
        f = np.full(grid.n_points, c)
        gs = ground_state(ScalarField(grid, f))
        defect = np.max(np.abs(gs.e0.values - 1.0 / np.sqrt(grid.length)))
        bound = UNITS * EPS * eigen_scale(grid, f) / gs.gap / np.sqrt(grid.spacing)
        assert defect <= bound
        assert abs(gs.lambda0 + c) <= UNITS * EPS * eigen_scale(grid, f)

    @PROPERTY
    @given(case=potentials())
    def test_lambda0_is_at_least_minus_max_potential(self, case):
        # -Lap is positive semidefinite, so the Rayleigh quotient is >= -max(f)
        grid, f, _ = case
        lam0 = ground_state(ScalarField(grid, f)).lambda0
        assert lam0 + np.max(f) >= -UNITS * EPS * eigen_scale(grid, f)


@st.composite
def gauge_cases(draw, topology=st.sampled_from(["circle", "interval"])):
    """A grid, a positive field, a gauge factor c = 2^k and a scale."""
    grid = build_grid(draw(topology), draw(st.sampled_from([1.0, 2 * np.pi, 7.5])),
                      draw(st.integers(16, 48)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.exp(0.5 * rng.normal(size=grid.n_points))
    return grid, u, 2.0 ** draw(st.integers(-30, 30)), draw(st.sampled_from([-2.0, -1.0, 0.5]))


def gauge_defect_bound(grid, u, c, scale) -> float:
    """Roundoff in scale * (grad log(c*u) - grad log(u)): log c cancels in
    the stencil, a node's two sampled logs differ from it by at most
    3 * eps * (1 + max|log|) (two logs, one product), and the stencil
    weights sum to at most 4/h (an interval end): 12, inside UNITS."""
    logs = max(np.max(np.abs(np.log(c * u))), np.max(np.abs(np.log(u))))
    return UNITS * EPS * abs(scale) * (1.0 + logs) / grid.spacing


class TestColeHopfGauge:
    @PROPERTY
    @given(case=gauge_cases())
    def test_grad_log_ignores_the_scale_of_u(self, case):
        grid, u, c, scale = case
        defect = np.max(np.abs(grad_log(ScalarField(grid, c * u), scale).values
                               - grad_log(ScalarField(grid, u), scale).values))
        assert defect <= gauge_defect_bound(grid, u, c, scale)

    @settings(PROPERTY, max_examples=10)
    @given(case=gauge_cases(topology=st.just("circle")), nu=st.sampled_from([0.5, 1.0, 2.0]))
    def test_sup_diff_ignores_the_scale_of_u0(self, case, nu):
        # c = 2^k scales the linear heat march exactly, so the runs differ
        # only through the initial velocities, off by the gauge bound, and
        # the Burgers steps' own roundoff; both grow at most like
        # exp(2 * max|H_x| * t) (maximum principle for the linearized flow)
        grid, u, c, _ = case
        forcing = 0.3 * np.cos(grid.x)
        dt, steps = 1e-3, 40
        runs = [cole_hopf_rows(ScalarField(grid, a * u), ScalarField(grid, forcing), nu,
                               dt, steps * dt, 10) for a in (1.0, c)]
        diffs = [run.series["sup_diff"] for run in runs]
        H = np.array([rec["H_direct"] for rec in runs[0].fields])
        growth = np.exp(2.0 * np.max(np.abs(_diff1(H, grid.spacing, True))) * steps * dt)
        start = gauge_defect_bound(grid, u, c, nu)
        per_step = 4 * UNITS * EPS * burgers_scale(grid, dt, nu, H, forcing)
        assert np.max(np.abs(diffs[1] - diffs[0])) <= growth * (start + steps * per_step) + start
