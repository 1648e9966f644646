"""Velocity/potential transform pair: exactness, gauge, and failure modes."""
import numpy as np
import pytest

from folflow.errors import NonPositiveField, NotConservative
from folflow.fiber import ScalarField, VectorAlongFiber, build_grid, integrate
from folflow.colehopf import (
    potential_from_velocity,
    roundtrip_residual,
    velocity_from_potential_fn,
)
from folflow.parabolic import PERIODIC, BurgersStepper, StepperConfig


class TestVelocityMap:
    def test_analytic_log_derivative_on_circle(self):
        g = build_grid("circle", 2 * np.pi, 256)
        u = ScalarField(g, np.exp(0.5 * np.sin(g.x)))
        H = velocity_from_potential_fn(u, 3.0)
        assert np.max(np.abs(H.values + 1.5 * np.cos(g.x))) <= 1e-12

    def test_scale_invariance(self):
        # H depends on u only through log u, so positive rescaling is invisible
        g = build_grid("circle", 2 * np.pi, 128)
        u = ScalarField(g, 2.0 + np.cos(g.x))
        h1 = velocity_from_potential_fn(u, 2.0).values
        h2 = velocity_from_potential_fn(ScalarField(g, 17.0 * u.values), 2.0).values
        np.testing.assert_allclose(h1, h2, atol=1e-12)

    def test_rejects_nonpositive_potential(self):
        g = build_grid("circle", 2 * np.pi, 64)
        with pytest.raises(NonPositiveField):
            velocity_from_potential_fn(ScalarField(g, np.sin(g.x)), 1.0)


class TestPotentialMap:
    def test_reconstruction_from_analytic_velocity(self):
        g = build_grid("circle", 2 * np.pi, 256)
        H = VectorAlongFiber(g, -2.0 * 0.5 * np.cos(g.x))
        u = potential_from_velocity(H, 2.0)
        target = np.exp(0.5 * np.sin(g.x))
        target *= g.length / integrate(ScalarField(g, target))
        assert np.max(np.abs(u.values - target)) <= 1e-12

    def test_gauge_fixes_mass_to_length(self):
        g = build_grid("circle", 2 * np.pi, 128)
        H = VectorAlongFiber(g, 0.4 * np.sin(2 * g.x))
        u = potential_from_velocity(H, 1.0)
        assert integrate(u) == pytest.approx(g.length, rel=1e-12)
        assert np.min(u.values) > 0.0

    def test_nonzero_circulation_rejected_on_circle(self):
        g = build_grid("circle", 2 * np.pi, 128)
        H = VectorAlongFiber(g, 0.1 + 0.4 * np.sin(g.x))
        with pytest.raises(NotConservative):
            potential_from_velocity(H, 1.0)


class TestRoundTrip:
    def test_circle_round_trip_closes_to_rounding(self):
        g = build_grid("circle", 2 * np.pi, 256)
        u = ScalarField(g, 2.0 + np.cos(g.x) + 0.3 * np.sin(2 * g.x))
        assert roundtrip_residual(u, 2.0) <= 1e-13

    def test_both_maps_reject_an_interval(self):
        # the pair is spectral, so it is defined on circle fibers only
        g = build_grid("interval", 1.0, 101)
        with pytest.raises(ValueError, match="circle fibers only"):
            velocity_from_potential_fn(ScalarField(g, 2.0 + np.cos(np.pi * g.x)), 2.0)
        with pytest.raises(ValueError, match="circle fibers only"):
            potential_from_velocity(VectorAlongFiber(g, 0.5 + 0.3 * g.x), 1.0)

    def test_round_trip_insensitive_to_rank_scale(self):
        g = build_grid("circle", 2 * np.pi, 128)
        u = ScalarField(g, 1.5 + 0.5 * np.sin(g.x))
        for n in (1.0, 2.0, 5.0):
            assert roundtrip_residual(u, n) <= 1e-13


class TestCirculationUnderFlow:
    def test_forced_transport_conserves_circulation(self):
        # the evolution writes the right side as a perfect derivative, so the
        # loop integral of the velocity is a discrete invariant
        g = build_grid("circle", 2 * np.pi, 256)
        nu = 1.0
        forcing = ScalarField(g, 0.2 * (1.0 + np.cos(g.x)))
        u0 = ScalarField(g, 2.0 + np.cos(g.x) + 0.3 * np.sin(2 * g.x))
        H = velocity_from_potential_fn(u0, nu)
        circ0 = integrate(H)
        stepper = BurgersStepper(g, forcing, StepperConfig(1e-3, nu, boundary=PERIODIC))
        for _ in range(1000):
            H = stepper.step(H)
        assert abs(integrate(H) - circ0) <= 1e-6
