"""Ground states, spectral decompositions, and counting asymptotics."""
import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from folflow.errors import ConvergenceFailure
from folflow.fiber import ScalarField, build_grid, integrate
from folflow.parabolic import PERIODIC, HeatStepper, StepperConfig
from folflow.schrodinger import (
    assemble_operator,
    dense_spectrum,
    eigencount,
    expand,
    ground_state,
    spectrum,
    weyl_theta,
)


def circle(n, length=2 * np.pi):
    return build_grid("circle", length, n)


class TestGroundStateFlatCase:
    def test_zero_potential_on_circle(self):
        g = circle(512)
        gs = ground_state(ScalarField(g, np.zeros(512)))
        assert abs(gs.lambda0) <= 1e-12
        # normalized constant eigenfunction
        assert np.max(np.abs(gs.e0.values - (2 * np.pi) ** -0.5)) <= 1e-12
        # first excited value of the stencil operator sits just under 1
        assert abs(gs.lambda1 - 1.0) <= 1e-3
        assert gs.gap == pytest.approx(gs.lambda1 - gs.lambda0)

    def test_zero_potential_on_interval(self):
        g = build_grid("interval", 1.0, 257)
        gs = ground_state(ScalarField(g, np.zeros(257)))
        assert gs.lambda0 == pytest.approx(np.pi ** 2, rel=1e-3)
        assert gs.lambda1 == pytest.approx(4 * np.pi ** 2, rel=1e-3)
        # eigenfunction vanishes at the ends and is positive inside
        assert gs.e0.values[0] == 0.0 and gs.e0.values[-1] == 0.0
        assert np.min(gs.e0.values[1:-1]) > 0.0


class TestGroundStateCosine:
    def test_agrees_with_dense_route(self):
        g = circle(512)
        f = ScalarField(g, np.cos(g.x))
        gs = ground_state(f)
        vals, _ = dense_spectrum(f, 2)
        assert abs(gs.lambda0 - vals[0]) <= 1e-10
        assert abs(gs.lambda1 - vals[1]) <= 1e-8
        assert -1.0 < gs.lambda0 < 0.0

    def test_frozen_values_for_shifted_cosine_well(self):
        g = circle(256)
        gs = ground_state(ScalarField(g, 0.2 * (1.0 + np.cos(g.x))))
        assert gs.lambda0 == pytest.approx(-0.219663, abs=1e-5)
        assert gs.lambda1 == pytest.approx(0.796618, abs=1e-5)

    def test_eigenfunction_normalized_and_positive(self):
        g = circle(256)
        gs = ground_state(ScalarField(g, np.cos(g.x)))
        assert integrate(ScalarField(g, gs.e0.values ** 2)) == pytest.approx(1.0, abs=1e-10)
        assert np.min(gs.e0.values) > 0.0


class TestLowerBoundProperty:
    def test_bottom_of_spectrum_above_minus_max_potential(self):
        # -lambda0 can never beat the sup of the potential
        g = circle(256)
        rng = np.random.default_rng(42)
        worst = np.inf
        for _ in range(100):
            vals = np.zeros(256)
            for mode in range(1, 4):
                a, b = rng.normal(size=2)
                vals += a * np.cos(mode * g.x) + b * np.sin(mode * g.x)
            f = ScalarField(g, vals)
            gs = ground_state(f)
            worst = min(worst, gs.lambda0 + np.max(vals))
        assert worst >= 0.0

    def test_iterative_matches_dense_on_random_batch(self):
        g = circle(256)
        rng = np.random.default_rng(7)
        for _ in range(10):
            vals = rng.normal(size=3) @ np.array(
                [np.cos(g.x), np.sin(g.x), np.cos(2 * g.x)]
            )
            f = ScalarField(g, vals)
            gs = ground_state(f)
            dvals, _ = dense_spectrum(f, 2)
            assert abs(gs.lambda0 - dvals[0]) <= 1e-9
            assert abs(gs.lambda1 - dvals[1]) <= 1e-7


class TestLanczosRoute:
    @pytest.mark.parametrize("case", ["circle_cos", "circle_cos2", "interval_well"])
    def test_even_potentials_match_dense_route(self, case):
        # an even potential has eigenvectors of both parities; the start
        # vector has no reflection symmetry, so an odd lambda1 is found too
        if case == "interval_well":
            g = build_grid("interval", 1.0, 257)
            vals = 40.0 * np.exp(-30.0 * (g.x - 0.5) ** 2)
        else:
            g = circle(512)
            vals = np.cos((2 if case == "circle_cos2" else 1) * g.x)
        f = ScalarField(g, vals)
        gs = ground_state(f)
        dvals, _ = dense_spectrum(f, 2)
        assert abs(gs.lambda0 - dvals[0]) <= 1e-9
        assert abs(gs.lambda1 - dvals[1]) <= 1e-9

    def test_repeats_are_bit_identical(self):
        g = circle(256)
        f = ScalarField(g, 0.2 * (1.0 + np.cos(g.x)) + 0.1 * np.sin(3 * g.x))
        a, b = ground_state(f), ground_state(f)
        assert (a.lambda0, a.lambda1) == (b.lambda0, b.lambda1)
        assert np.array_equal(a.e0.values, b.e0.values)

    def test_no_convergence_surfaces_as_convergence_failure(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr("folflow.schrodinger.eigsh", stalled)
        g = circle(64)
        with pytest.raises(ConvergenceFailure):
            ground_state(ScalarField(g, np.cos(g.x)))


class TestSpectralDecomposition:
    def test_expansion_coefficients_are_orthonormal_deltas(self):
        g = circle(128)
        f = ScalarField(g, np.cos(g.x))
        dec = spectrum(f, 6)
        for j, ef in enumerate(dec.eigenfunctions):
            coeffs = expand(ef, dec)
            target = np.zeros(6)
            target[j] = 1.0
            np.testing.assert_allclose(coeffs, target, atol=1e-9)

    def test_partial_sums_improve_monotonically(self):
        g = circle(256)
        f = ScalarField(g, np.cos(g.x))
        u = ScalarField(g, np.exp(np.sin(g.x)))
        errs = []
        for m in (4, 8, 16):
            dec = spectrum(f, m)
            coeffs = expand(u, dec)
            recon = np.zeros(g.n_points)
            for c, ef in zip(coeffs, dec.eigenfunctions):
                recon += c * ef.values
            diff = ScalarField(g, (u.values - recon) ** 2)
            errs.append(np.sqrt(integrate(diff)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-5

    def test_flat_circle_eigenvalues_match_mode_squares(self):
        g = circle(512)
        dec = spectrum(ScalarField(g, np.zeros(512)), 10)
        exact = np.array([0.0, 1, 1, 4, 4, 9, 9, 16, 16, 25])
        rel = np.abs(dec.eigenvalues - exact) / np.maximum(exact, 1.0)
        assert np.max(rel) <= 0.02

    def test_mode_count_validated(self):
        g = circle(64)
        f = ScalarField(g, np.zeros(64))
        with pytest.raises(ValueError):
            spectrum(f, 0)
        with pytest.raises(ValueError):
            spectrum(f, 65)


class TestCountingAsymptotics:
    def test_counting_ratio_tracks_leading_coefficient(self):
        g = circle(512)
        dec = spectrum(ScalarField(g, np.zeros(512)), 40)
        theta = weyl_theta(g)
        for lam in (25.0, 50.0, 75.0, 100.0):
            ratio = eigencount(dec, lam) / np.sqrt(lam)
            assert abs(ratio - theta) <= 0.25 * theta

    def test_flat_count_at_ten(self):
        g = circle(512)
        dec = spectrum(ScalarField(g, np.zeros(512)), 12)
        # modes 0, +-1, +-2, +-3 sit at 0, 1, 1, 4, 4, 9, 9
        assert eigencount(dec, 10.0) == 7

    def test_theta_scales_with_length(self):
        assert weyl_theta(circle(64, 2 * np.pi)) == pytest.approx(2.0)
        assert weyl_theta(circle(64, np.pi)) == pytest.approx(1.0)


class TestHeatSemigroupConsistency:
    def test_projected_residual_decays_at_the_gap(self):
        # seed with ground state plus an odd bump: the deviation from the
        # rank-one projection then dies at exactly the spectral gap
        g = circle(256)
        f = ScalarField(g, np.cos(g.x))
        gs = ground_state(f)
        u = ScalarField(g, gs.e0.values + 0.3 * np.sin(g.x))
        stepper = HeatStepper(g, f, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        ts, resids = [], []
        t = 0.0
        for k in range(1, 5001):
            u = stepper.step(u)
            t += 1e-3
            if k % 50 == 0:
                c = integrate(ScalarField(g, u.values * gs.e0.values))
                ts.append(t)
                resids.append(np.max(np.abs(u.values - c * gs.e0.values)) / abs(c))

        from folflow.scenarios import fit_decay_rate

        fit = fit_decay_rate(np.array(ts), np.array(resids))
        assert fit.rate == pytest.approx(gs.gap, rel=0.1)

    def test_rayleigh_quotient_never_increases(self):
        g = circle(256)
        f = ScalarField(g, np.cos(g.x))
        mat = assemble_operator(f)
        u = ScalarField(g, 2.0 + 0.5 * np.sin(g.x) + 0.3 * np.cos(2 * g.x))
        stepper = HeatStepper(g, f, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
        prev = np.inf
        for k in range(1, 1001):
            u = stepper.step(u)
            if k % 25 == 0:
                w = u.values
                ray = float(w @ (mat @ w)) / float(w @ w)
                assert ray <= prev + 1e-12
                prev = ray
        gs = ground_state(f)
        assert prev >= gs.lambda0 - 1e-12
