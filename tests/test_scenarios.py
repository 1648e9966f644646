"""Scenario drivers: revolution surfaces, twisted products, and the normalized flow."""
import numpy as np
import pytest

from folflow.errors import GapTooSmall, NotConverged, ProfileDegenerate
from folflow.fiber import ScalarField, build_grid, derivative, integrate
from folflow.scenarios import (
    NormalizedConfig,
    SurfaceConfig,
    TwistedConfig,
    fit_decay_rate,
    linear_interpolant,
    positivity_verdict,
    run_normalized_flow,
    run_surface_of_revolution,
    run_twisted_product,
    surface_evolution_crosscheck,
)


def circle(n, length=2 * np.pi):
    return build_grid("circle", length, n)


# ---------------------------------------------------------------------------
# surfaces of revolution


class TestSurfaceRun:
    def test_interval_profile_relaxes_toward_interpolant(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.5,
                                                       record_every=1000))
        dev0 = np.max(np.abs(traj.states[0].rho.values - interp.values))
        devT = np.max(np.abs(traj.states[-1].rho.values - interp.values))
        # the bump decays at rate pi^2, three decades by t = 0.5
        assert devT <= dev0 * np.exp(-np.pi ** 2 * 0.5) * 1.01
        assert np.all(np.diff(traj.series["sup_K"]) <= 1e-12)

    def test_arc_length_constraint_tracked(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.1,
                                                       record_every=100))
        assert np.max(traj.series["arc_residual"]) <= 1e-12

    def test_axial_coordinate_monotone_and_anchored(self):
        g = build_grid("interval", 1.0, 201)
        rho0 = ScalarField(g, linear_interpolant(g, 0.5, 0.8).values)
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.0))
        h = traj.states[0].h.values
        assert h[0] == 0.0
        assert np.all(np.diff(h) > 0.0)
        # profile slope 0.3 gives axial slope sqrt(1 - 0.09)
        assert np.max(np.abs(np.diff(h) / g.spacing - np.sqrt(0.91))) <= 1e-10

    def test_conformal_factor_matches_accumulated_curvature(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=1.0,
                                                       record_every=1000))
        assert np.max(traj.series["conformal_dev"]) <= 1e-5

    def test_closed_profile_total_curvature_vanishes(self):
        # a closed revolution profile bounds a torus: signed curvature
        # integrates to zero against the area element at every instant
        g = circle(256)
        rho0 = ScalarField(g, 3.0 + 0.5 * np.cos(g.x))
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.5,
                                                       record_every=2500))
        for st in traj.states:
            total = integrate(ScalarField(g, st.K.values * st.rho.values))
            assert abs(total) <= 1e-12
            assert integrate(st.K) <= 0.0

    def test_pinched_profile_rejected(self):
        # diffusion can only raise the minimum, so a nonpositive radius is
        # caught at the initial state
        g = circle(128)
        rho0 = ScalarField(g, 0.5 + 0.6 * np.cos(g.x))
        with pytest.raises(ProfileDegenerate):
            run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=1.0))

    def test_steep_initial_slope_rejected(self):
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, 1.0 + 1.2 * g.x)
        with pytest.raises(ProfileDegenerate):
            run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.1))

    def test_grid_mismatch_rejected(self):
        rho0 = ScalarField(circle(64), np.full(64, 2.0))
        with pytest.raises(ValueError):
            run_surface_of_revolution(SurfaceConfig(circle(128), rho0, dt=1e-3, t_end=0.1))


class TestSurfaceCrosscheck:
    def test_curvature_evolution_identities(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-4, t_end=0.05,
                                                       record_every=50))
        res = surface_evolution_crosscheck(traj)
        assert res["k_residual"] <= 5e-3
        assert res["K_residual"] <= 5e-2

    def test_needs_three_uniform_records(self):
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, linear_interpolant(g, 0.5, 0.8).values)
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=1e-3, t_end=0.0))
        with pytest.raises(ValueError):
            surface_evolution_crosscheck(traj)

    def test_velocity_tracks_transport_law(self):
        # profile curvature evolved through the quadratic transport equation
        # shadows the curvature of the diffusing profile
        from folflow.fiber import VectorAlongFiber
        from folflow.parabolic import PERIODIC, BurgersStepper, StepperConfig

        g = circle(256)
        rho0 = ScalarField(g, 3.0 + 0.5 * np.cos(g.x))
        dt = 1e-3
        traj = run_surface_of_revolution(SurfaceConfig(g, rho0, dt=dt, t_end=1.0,
                                                       record_every=1000))
        stepper = BurgersStepper(g, ScalarField(g, np.zeros(256)),
                                 StepperConfig(dt, 1.0, boundary=PERIODIC))
        H = VectorAlongFiber(g, traj.states[0].k.values)
        for _ in range(1000):
            H = stepper.step(H)
        assert np.max(np.abs(H.values - traj.states[-1].k.values)) <= 1e-5


class TestLinearInterpolant:
    def test_endpoints_and_slope(self):
        g = build_grid("interval", 2.0, 101)
        f = linear_interpolant(g, 0.5, 0.9)
        assert f.values[0] == pytest.approx(0.5)
        assert f.values[-1] == pytest.approx(0.9)
        np.testing.assert_allclose(derivative(f).values, 0.2, atol=1e-12)


# ---------------------------------------------------------------------------
# twisted products


class TestTwistedRun:
    def test_single_slice_closed_form(self):
        g = circle(256)
        f0 = ScalarField(g, 0.5 * (1.0 + 0.3 * np.cos(g.x)))
        traj = run_twisted_product(TwistedConfig(g, 2, (f0,), dt=1e-3, t_end=1.0,
                                                 record_every=100))
        fT = traj.states[-1].f[0].values
        exact = 0.5 * (1.0 + 0.3 * np.exp(-2.0) * np.cos(g.x))
        rel = np.max(np.abs(fT - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-5

    def test_slices_relax_to_their_fiber_means(self):
        g = circle(256)
        amps = [0.3 + 0.1 * np.cos(b) for b in (0.0, np.pi / 3, 2.0)]
        slices = tuple(ScalarField(g, a * (1.0 + 0.3 * np.cos(g.x))) for a in amps)
        traj = run_twisted_product(TwistedConfig(g, 2, slices, dt=1e-3, t_end=6.0,
                                                 record_every=1000))
        assert traj.series["sup_dist_to_mean"][-1] <= 1e-6
        np.testing.assert_allclose(traj.fiber_means, amps, atol=1e-12)
        assert np.max(traj.series["mass_drift"]) <= 1e-12

    def test_velocity_supremum_decays(self):
        g = circle(128)
        f0 = ScalarField(g, 1.0 + 0.4 * np.sin(g.x))
        traj = run_twisted_product(TwistedConfig(g, 1, (f0,), dt=1e-3, t_end=2.0,
                                                 record_every=200))
        sup_h = traj.series["sup_H"]
        assert np.all(np.diff(sup_h) < 0.0)

    def test_input_validation(self):
        g = circle(64)
        good = ScalarField(g, np.full(64, 1.0))
        with pytest.raises(ValueError):
            run_twisted_product(TwistedConfig(build_grid("interval", 1.0, 64), 1,
                                              (ScalarField(build_grid("interval", 1.0, 64),
                                                           np.ones(64)),),
                                              dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_twisted_product(TwistedConfig(g, 0, (good,), dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_twisted_product(TwistedConfig(g, 1, (), dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_twisted_product(TwistedConfig(g, 1, (ScalarField(g, np.cos(g.x)),),
                                              dt=1e-3, t_end=0.1))


# ---------------------------------------------------------------------------
# normalized flow


class TestNormalizedRun:
    def test_flat_potential_is_a_fixed_point(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, np.zeros(128)),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 4.0)), dt=1e-3, t_end=1.0)
        traj = run_normalized_flow(cfg)
        final = traj.states[-1]
        assert abs(traj.ground.lambda0) <= 1e-12
        assert np.max(np.abs(final.scmixT2.values)) <= 1e-10
        assert np.max(np.abs(final.T2.values - 4.0)) <= 1e-10

    def test_constant_potential_shifts_the_limit_exactly(self):
        g = circle(128)
        c = 0.7
        cfg = NormalizedConfig(g, 2, ScalarField(g, np.full(128, c)),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 4.0)), dt=1e-3, t_end=1.0)
        traj = run_normalized_flow(cfg)
        assert traj.ground.lambda0 == pytest.approx(-c, abs=1e-8)
        assert traj.Phi == pytest.approx(-2 * c, abs=1e-8)
        report = positivity_verdict(traj)
        assert report.positive_everywhere
        assert report.min_value == pytest.approx(4.0 - 1.4, abs=1e-8)

    def test_zero_T2_yields_negative_limit(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.zeros(128)), dt=1e-3, t_end=6.0)
        traj = run_normalized_flow(cfg)
        report = positivity_verdict(traj)
        assert not report.positive_everywhere
        # with no twist left the limit is exactly the normalization constant
        assert report.min_value == pytest.approx(traj.Phi, abs=1e-5)
        assert report.min_value < 0.0

    def test_verdict_requires_convergence(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 16.0)), dt=1e-3, t_end=0.1)
        traj = run_normalized_flow(cfg)
        with pytest.raises(NotConverged):
            positivity_verdict(traj)

    def test_small_gap_rejected_up_front(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 1.0)),
                               dt=1e-3, t_end=0.1, gap_min=2.0)
        with pytest.raises(GapTooSmall):
            run_normalized_flow(cfg)

    def test_input_validation(self):
        g = circle(64)
        beta = ScalarField(g, np.zeros(64))
        one = ScalarField(g, np.ones(64))
        with pytest.raises(ValueError):
            run_normalized_flow(NormalizedConfig(g, 2, ScalarField(g, np.cos(g.x)),
                                                 one, one, dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_normalized_flow(NormalizedConfig(g, 2, beta, ScalarField(g, np.cos(g.x)),
                                                 one, dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_normalized_flow(NormalizedConfig(g, 2, beta, one,
                                                 ScalarField(g, np.full(64, -1.0)),
                                                 dt=1e-3, t_end=0.1))
        with pytest.raises(ValueError):
            run_normalized_flow(NormalizedConfig(g, 0, beta, one, one, dt=1e-3, t_end=0.1))

    def test_conserved_combination_drift_stays_small(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 16.0)), dt=1e-3, t_end=1.0,
                               record_every=50)
        traj = run_normalized_flow(cfg)
        assert np.max(traj.series["betaD_drift"]) == 0.0
        assert np.max(traj.series["conservation_drift"]) <= 1e-6

    def test_velocity_approaches_its_spectral_limit(self):
        g = circle(128)
        cfg = NormalizedConfig(g, 2, ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, np.full(128, 16.0)), dt=1e-3, t_end=4.0,
                               record_every=100)
        traj = run_normalized_flow(cfg)
        h_dev = traj.series["h_dev"]
        assert h_dev[-1] <= 1e-3
        assert h_dev[-1] < h_dev[0]


class TestFitDecayRate:
    def test_recovers_synthetic_rate(self):
        ts = np.linspace(0.0, 6.0, 121)
        vals = 3.0 * np.exp(-1.7 * ts)
        fit = fit_decay_rate(ts, vals)
        assert fit.rate == pytest.approx(1.7, rel=1e-6)
        assert fit.n_points >= 5

    def test_ignores_transient_and_floor(self):
        ts = np.linspace(0.0, 10.0, 201)
        vals = 3.0 * np.exp(-1.7 * ts) + 1e-11
        vals[:10] = 5.0  # non-exponential head
        fit = fit_decay_rate(ts, vals)
        assert fit.rate == pytest.approx(1.7, rel=1e-2)

    def test_too_few_points_rejected(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            fit_decay_rate(ts, np.exp(-ts))

    def test_all_nonpositive_rejected(self):
        ts = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError):
            fit_decay_rate(ts, np.zeros(20))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.zeros(4), np.zeros(5))
