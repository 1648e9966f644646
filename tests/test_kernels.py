"""Metamorphic properties of the steppers and the stencils.

Each property follows from the structure of the equations, not from stored
reference data: linearity, translation and reflection symmetry on a circle,
the conservation laws, held interval ends, and equality of blocked and
one-field evaluation.

Roundoff tolerances come from the condition of the step.  A Crank-Nicolson
step forms B @ u with B = I + c*A and solves with M = I - c*A, c = dt/2,
A = nu*Lap + diag(V).  M is diagonally dominant by rows with margin
1 - c*max(V) while c*max(V) < 1, so ||M^-1||_inf <= 1 / (1 - c*max(V)), and
||B||_inf <= 1 + c*(4*nu/h^2 + max|V|).  A computed step is then off by at
most UNITS * eps * ||B|| * ||M^-1|| * ||u||_inf.  UNITS bounds the rounded
operations per row, 3 in B @ u and 2 in each of the forward and back
substitutions, times 2 for the growth factor of an elimination without
pivoting on a diagonally dominant matrix: 2 * (3 + 2 + 2) = 14, rounded up.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from folflow.fiber import ScalarField, VectorAlongFiber, _diff1, _diff2, build_grid, integrate
from folflow.parabolic import PERIODIC, BurgersStepper, Dirichlet, HeatStepper, StepperConfig

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
    def test_columns_step_like_single_fields(self, case, topology, kind, m):
        circle, dt, nu, V, rng = case
        grid = build_grid(topology, circle.length, circle.n_points)
        cols = rng.normal(size=(grid.n_points, m))
        boundary = PERIODIC
        if topology == "interval":
            cols[0], cols[-1] = 0.3, -0.7
            boundary = Dirichlet(0.3, -0.7)
        cfg = StepperConfig(dt, nu, boundary=boundary)
        field = ScalarField(grid, V)
        stepper = (HeatStepper(grid, field, cfg) if kind == "heat"
                   else BurgersStepper(grid, field, cfg))
        each = np.column_stack([stepper.step(cols[:, i].copy()) for i in range(m)])
        assert np.array_equal(stepper.step(cols), each)

    @PROPERTY
    @given(topology=st.sampled_from(["circle", "interval"]), rows=st.integers(1, 9),
           n=st.integers(8, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_stencils_on_a_block_act_row_by_row(self, topology, rows, n, seed):
        grid = build_grid(topology, 1.0, n)
        block = np.random.default_rng(seed).normal(size=(rows, n))
        for diff in (_diff1, _diff2):
            each = np.array([diff(row.copy(), grid.spacing, grid.periodic) for row in block])
            assert np.array_equal(diff(block, grid.spacing, grid.periodic), each)
