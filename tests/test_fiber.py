"""Grid construction, field products, and difference-operator accuracy."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folflow.errors import NonPositiveField
from folflow.fiber import (
    FiberGrid,
    ScalarField,
    Topology,
    VectorAlongFiber,
    build_grid,
    derivative,
    divergence,
    fourier_derivative,
    grad_log,
    integrate,
    laplacian,
)


def circle(n=128, length=2 * np.pi):
    return build_grid("circle", length, n)


def interval(n=101, length=1.0):
    return build_grid("interval", length, n)


class TestGrid:
    def test_circle_spacing_excludes_seam(self):
        g = circle(100, 2 * np.pi)
        assert g.spacing == pytest.approx(2 * np.pi / 100)
        assert g.x[0] == 0.0
        # last node is one spacing short of the seam
        assert g.x[-1] == pytest.approx(2 * np.pi - g.spacing)

    def test_interval_spacing_includes_both_ends(self):
        g = interval(101, 1.0)
        assert g.spacing == pytest.approx(0.01)
        assert g.x[-1] == pytest.approx(1.0)

    def test_topology_coercion_from_string(self):
        assert build_grid("circle", 1.0, 16).topology is Topology.CIRCLE
        assert build_grid("interval", 1.0, 16).topology is Topology.INTERVAL

    def test_rejects_bad_length_and_size(self):
        with pytest.raises(ValueError):
            build_grid("circle", -1.0, 64)
        with pytest.raises(ValueError):
            build_grid("circle", 2.0, 3)
        with pytest.raises(ValueError):
            FiberGrid(Topology.CIRCLE, float("inf"), 64)


class TestFieldContainer:
    def test_values_are_copied_and_frozen(self):
        g = circle(16)
        src = np.ones(16)
        u = ScalarField(g, src)
        src[0] = 99.0
        assert u.values[0] == 1.0
        with pytest.raises(ValueError):
            u.values[0] = 5.0

    def test_shape_and_finiteness_checked(self):
        g = circle(16)
        with pytest.raises(ValueError):
            ScalarField(g, np.ones(15))
        with pytest.raises(ValueError):
            ScalarField(g, np.full(16, np.nan))

    def test_arithmetic_stays_on_grid(self):
        g = circle(16)
        u = ScalarField(g, np.arange(16.0))
        v = ScalarField(g, np.ones(16))
        w = u * v * 2.0
        assert isinstance(w, ScalarField) and w.grid == g
        np.testing.assert_allclose(w.values, 2.0 * np.arange(16.0))
        np.testing.assert_allclose((u * np.arange(16.0)).values, np.arange(16.0) ** 2)

    def test_mixed_grid_arithmetic_rejected(self):
        u = ScalarField(circle(16), np.ones(16))
        v = ScalarField(circle(32), np.ones(32))
        with pytest.raises(ValueError):
            u * v


class TestDifferenceOperators:
    def test_derivative_exact_on_trig(self):
        g = circle(256)
        u = ScalarField(g, np.sin(g.x))
        # centered stencil on sin: error h^2/6 * sup|cos|
        err = np.max(np.abs(derivative(u).values - np.cos(g.x)))
        assert err <= g.spacing ** 2 / 6 * 1.0001

    def test_derivative_second_order_on_circle(self):
        errs = []
        for n in (64, 128, 256):
            g = circle(n)
            u = ScalarField(g, np.exp(np.sin(g.x)))
            exact = np.cos(g.x) * np.exp(np.sin(g.x))
            errs.append(np.max(np.abs(derivative(u).values - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_derivative_second_order_on_interval(self):
        # one-sided closures at the ends are second order too
        errs = []
        for n in (65, 129, 257):
            g = build_grid("interval", 1.0, n)
            u = ScalarField(g, np.exp(g.x))
            errs.append(np.max(np.abs(derivative(u).values - np.exp(g.x))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)

    def test_laplacian_second_order(self):
        errs = []
        for n in (64, 128, 256):
            g = circle(n)
            u = ScalarField(g, np.sin(2 * g.x))
            errs.append(np.max(np.abs(laplacian(u).values + 4.0 * np.sin(2 * g.x))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.95)

    def test_divergence_matches_derivative(self):
        g = circle(64)
        vals = np.cos(3 * g.x)
        np.testing.assert_array_equal(
            divergence(VectorAlongFiber(g, vals)).values,
            derivative(ScalarField(g, vals)).values,
        )

    def test_fourier_derivative_spectrally_exact(self):
        g = circle(64)
        u = ScalarField(g, np.sin(5 * g.x) + 0.2 * np.cos(11 * g.x))
        exact = 5 * np.cos(5 * g.x) - 2.2 * np.sin(11 * g.x)
        assert np.max(np.abs(fourier_derivative(u).values - exact)) <= 1e-12

    def test_fourier_derivative_needs_circle(self):
        with pytest.raises(ValueError):
            fourier_derivative(ScalarField(interval(), np.ones(101)))


class TestIntegrate:
    def test_circle_rectangle_rule_exact_for_modes(self):
        g = circle(64)
        assert integrate(ScalarField(g, np.ones(64))) == pytest.approx(2 * np.pi)
        assert abs(integrate(ScalarField(g, np.cos(3 * g.x)))) <= 1e-13

    def test_interval_trapezoid(self):
        g = interval(101)
        assert integrate(ScalarField(g, g.x)) == pytest.approx(0.5, abs=1e-12)


class TestGradLog:
    def test_matches_analytic_log_derivative(self):
        g = circle(256)
        u = ScalarField(g, np.exp(np.sin(g.x)))
        got = grad_log(u, -2.0)
        # centered stencil on log u = sin: error 2 * h^2/6 * sup|cos|
        assert np.max(np.abs(got.values + 2.0 * np.cos(g.x))) <= 2.1e-4

    def test_scale_linearity(self):
        g = circle(64)
        u = ScalarField(g, 2.0 + np.cos(g.x))
        np.testing.assert_allclose(grad_log(u, -3.0).values, -3.0 * grad_log(u).values)

    def test_rejects_nonpositive(self):
        g = circle(64)
        with pytest.raises(NonPositiveField):
            grad_log(ScalarField(g, np.cos(g.x)))

    def test_product_splits_into_sum(self):
        # log turns products into sums before differencing, so the stencil
        # error of the product is exactly the sum of the factor errors
        g = circle(64)
        u = ScalarField(g, 2.0 + np.cos(g.x))
        v = ScalarField(g, 1.5 + 0.5 * np.sin(g.x))
        lhs = grad_log(ScalarField(g, u.values * v.values)).values
        rhs = grad_log(u).values + grad_log(v).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
    shift=st.floats(-5.0, 5.0),
)
def test_derivative_kills_constants_and_is_linear(coeffs, shift):
    g = build_grid("circle", 2 * np.pi, 64)
    vals = np.zeros(64)
    for m, c in enumerate(coeffs, start=1):
        vals += c * np.sin(m * g.x)
    u = ScalarField(g, vals)
    shifted = ScalarField(g, vals + shift)
    np.testing.assert_allclose(
        derivative(shifted).values, derivative(u).values, atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
def test_circle_derivative_has_zero_mean(coeffs):
    g = build_grid("circle", 2 * np.pi, 64)
    vals = np.ones(64)
    for m, c in enumerate(coeffs, start=1):
        vals += c * np.cos(m * g.x)
    d = derivative(ScalarField(g, vals))
    assert abs(integrate(d)) <= 1e-10 * (1.0 + np.max(np.abs(vals)))
