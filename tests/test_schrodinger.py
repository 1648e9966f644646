"""Ground states, spectral decompositions, and counting asymptotics."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import folflow.scenarios
from folflow.config import parse_config_text
from folflow.errors import ConvergenceFailure
from folflow.fiber import ScalarField, build_grid, integrate
from folflow.parabolic import PERIODIC, HeatStepper, StepperConfig
from folflow.scenarios import SCENARIOS, _random_trig_potentials
from folflow.schrodinger import (
    SpectralDecomposition,
    _band,
    _bordered,
    _shifted_solver,
    _validate_decomposition,
    assemble_operator,
    canonicalize,
    dense_spectrum,
    eigencount,
    expand,
    ground_state,
    lowest_eigenvalue,
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

    @pytest.mark.parametrize("error", [
        ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))),
        # splu inside eigsh, when A - sigma*I is exactly singular
        RuntimeError("Factor is exactly singular"),
    ], ids=["no_convergence", "singular_shift"])
    def test_no_convergence_surfaces_as_convergence_failure(self, monkeypatch, error):
        def stalled(*args, **kwargs):
            raise error

        monkeypatch.setattr("folflow.schrodinger.eigsh", stalled)
        g = circle(64)
        with pytest.raises(ConvergenceFailure):
            ground_state(ScalarField(g, np.cos(g.x)))

    def test_a_potential_that_swallows_the_shift_is_refused_by_its_rule(self):
        # -max(f) - 1 rounds to -max(f), so A - sigma*I has a zero diagonal:
        # the rule's message, not splu's "Factor is exactly singular"
        g = build_grid("interval", 0.25, 13)
        f = ScalarField(g, 1.0e308 + 3.27 * np.cos(4.0 * np.pi * g.x / g.length))
        with pytest.raises(ValueError) as exc:
            ground_state(f)
        assert str(exc.value).startswith("potential: rounding swallows the Lanczos shift's margin")
        assert "singular" not in str(exc.value)


def bound_loop_potentials(g):
    """Flat, even, odd, random trigonometric (the bound loop's kind) and a
    ramp, whose largest interior value sits next to an interval's end."""
    rng = np.random.default_rng(11)
    return {"flat": np.zeros(g.n_points), "even": 0.3 * np.cos(2 * g.x), "odd": np.sin(g.x),
            **{f"random{i}": pot.values
               for i, pot in enumerate(_random_trig_potentials(g, rng, 3))},
            "ramp": g.x / g.length}


class TestLowestEigenvalue:
    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("n", [8, 9, 64, 256, 1024])
    def test_matches_dense_reference(self, topology, n):
        g = build_grid(topology, 2 * np.pi, n)
        for name, vals in bound_loop_potentials(g).items():
            f = ScalarField(g, vals)
            bound = 4 * np.finfo(float).eps * (4 / g.spacing ** 2 + np.max(np.abs(vals)))
            assert abs(lowest_eigenvalue(f) - dense_spectrum(f, 1)[0][0]) <= bound, name

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    def test_sylvester_inertia_certificate(self, topology):
        # A - sigma has as many negative eigenvalues as T - sigma and the
        # Schur complement s together: none below lambda0, one just above
        g = build_grid(topology, 2 * np.pi, 128)
        for name, vals in bound_loop_potentials(g).items():
            f = ScalarField(g, vals)
            lam, schur = lowest_eigenvalue(f), _bordered(f)
            gap = float(np.diff(dense_spectrum(f, 2)[0])[0])
            for delta in (1e-6 * gap, 0.5 * gap):
                ok, s, _ = schur(lam - delta)
                assert ok and s > 0.0, (name, delta)
                ok, s, _ = schur(lam + delta)
                assert not (ok and s > 0.0), (name, delta)

    def test_flat_circle_is_exact_in_one_step(self, monkeypatch):
        calls = []
        bordered = _bordered

        def counted(f):
            schur = bordered(f)
            return lambda sigma: calls.append(sigma) or schur(sigma)

        monkeypatch.setattr("folflow.schrodinger._bordered", counted)
        assert lowest_eigenvalue(ScalarField(circle(1024), np.zeros(1024))) == 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["non_finite", "iterations"])
    def test_failure_surfaces_as_convergence_failure(self, monkeypatch, case):
        if case == "non_finite":
            monkeypatch.setattr("folflow.schrodinger.dpttrs",
                                lambda d, e, b: (np.full_like(b, np.nan), 0))
        else:  # s > 0 everywhere: no root, so Newton walks off without end
            monkeypatch.setattr("folflow.schrodinger._bordered",
                                lambda f: lambda sigma: (True, 1.0, -1.0))
        g = circle(64)
        with pytest.raises(ConvergenceFailure):
            lowest_eigenvalue(ScalarField(g, np.cos(g.x)))

    def test_spectral_report_calls_arpack_once(self, monkeypatch):
        calls = {"ground_state": 0, "lowest_eigenvalue": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(f"folflow.scenarios.{name}",
                                counted(name, getattr(folflow.scenarios, name)))
        cfg = parse_config_text(
            "scenario: spectral_report\n"
            "grid: {topology: circle, length: 6.283185307179586, n_points: 64}\n"
            "time: {dt: 0.001, t_end: 0.0}\nmodes: 4\nn_random: 7\n")
        _, summary = SCENARIOS["spectral_report"].run(cfg, cfg.grid, cfg.fields)
        assert calls == {"ground_state": 1, "lowest_eigenvalue": 7}
        assert summary["min_bound_margin"] >= 0.0


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


def sparse_diags_operator(f):
    """The operator built by sparse diagonal arithmetic, then sliced to the
    interior on an interval: the reference for the direct assembly."""
    g = f.grid
    n, inv = g.n_points, 1.0 / (g.spacing * g.spacing)
    side = np.full(n - 1, inv)
    bands, offsets = [side, np.full(n, -2.0 * inv), side], [-1, 0, 1]
    if g.periodic:
        bands, offsets = [[inv], *bands, [inv]], [-(n - 1), *offsets, n - 1]
    mat = -sp.diags(bands, offsets, format="csr") - sp.diags(f.values)
    return mat if g.periodic else mat[1:-1, 1:-1]


class TestOperatorAssembly:
    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 1024])
    def test_direct_assembly_equals_the_sparse_diagonal_arithmetic(self, topology, n):
        g = build_grid(topology, 2.0, n)
        rng = np.random.default_rng(n)
        hits_zero = rng.normal(size=n)
        hits_zero[n // 2] = 2.0 / g.spacing ** 2  # a zero diagonal entry is not stored
        for vals in (rng.normal(size=n), np.zeros(n), hits_zero):
            f = ScalarField(g, vals)
            mine, reference = assemble_operator(f), sparse_diags_operator(f)
            assert mine.format == reference.format and mine.shape == reference.shape
            for part in ("data", "indices", "indptr"):
                a, b = getattr(mine, part), getattr(reference, part)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    @pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 65])
    def test_band_is_the_operator_in_its_order(self, topology, n):
        g = build_grid(topology, 2.0, n)
        f = ScalarField(g, np.random.default_rng(n).normal(size=n))
        order, band = _band(f)
        u, size = len(band) // 2, band.shape[1]
        full = np.zeros((size, size))
        for d in range(-u, u + 1):
            j = np.arange(max(d, 0), size + min(d, 0))
            full[j - d, j] = band[u - d, j]
        assert np.array_equal(full, assemble_operator(f).toarray()[np.ix_(order, order)])


def active_columns(dec):
    """Eigenfunctions over the active nodes, scaled to unit plain 2-norm."""
    g = dec.eigenfunctions[0].grid
    cols = np.stack([ef.values for ef in dec.eigenfunctions], axis=1)
    return np.sqrt(g.spacing) * (cols if g.periodic else cols[1:-1])


# flat circles (exact pairs), the cos(2x) circle whose mirrored nodes tie
# under an argmax sign rule, a potential symmetric about an interval's
# midpoint, and four wells whose lowest four eigenvalues lie within 1.3e-9,
# one eigenspace that runs past m + 2.  m of each test: the first cuts an
# eigenspace on the circles; the second stops below cos(2x)'s eighth and
# ninth eigenvalues, 4.6e-7 apart, whose dense eigenvectors are only good
# to about eps * ||A|| / 4.6e-7.
CANONICAL_CASES = {
    "flat_circle_64": ("circle", 2 * np.pi, 64, lambda x: 0.0 * x, 6, 6),
    "flat_circle_512": ("circle", 2 * np.pi, 512, lambda x: 0.0 * x, 10, 10),
    "cos2x_circle_64": ("circle", 2 * np.pi, 64, lambda x: 0.3 * np.cos(2 * x), 14, 6),
    "symmetric_interval": ("interval", 1.0, 65, lambda x: 40.0 * np.exp(-30.0 * (x - 0.5) ** 2),
                           6, 6),
    "four_wells_circle_256": ("circle", 40.0, 256, lambda x: 10.0 * sum(
        np.exp(-(x - c) ** 2) for c in (5.0, 15.0, 25.0, 35.0)), 1, 4),
}


def canonical_case(name):
    topology, length, n, potential, *modes = CANONICAL_CASES[name]
    g = build_grid(topology, length, n)
    return ScalarField(g, potential(g.x)), modes


class TestCanonicalBasis:
    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_more_modes_keep_the_first_ones(self, case):
        f, (m, _) = canonical_case(case)
        # equal to roundoff: bisection over a longer index range ends a few
        # units of roundoff elsewhere, which turns an eigenvector by about
        # that much over the gap to its neighbour
        few, more = spectrum(f, m), spectrum(f, m + 3)
        np.testing.assert_allclose(few.eigenvalues, more.eigenvalues[:m], rtol=0, atol=1e-12)
        np.testing.assert_allclose(active_columns(few), active_columns(more)[:, :m],
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_columns_are_the_canonical_dense_columns(self, case):
        f, (_, m) = canonical_case(case)
        vals, vecs = canonicalize(f, *dense_spectrum(f, m + 3))
        dec = spectrum(f, m)
        np.testing.assert_allclose(dec.eigenvalues, vals[:m], rtol=0, atol=1e-10)
        np.testing.assert_allclose(active_columns(dec), vecs[:, :m], rtol=0, atol=1e-9)

    def test_basis_and_signs_do_not_depend_on_the_input_basis(self):
        f, (m, _) = canonical_case("flat_circle_64")
        vals, vecs = dense_spectrum(f, m + 1)
        turn = np.eye(m + 1)
        c, s = np.cos(0.7), np.sin(0.7)
        turn[1:3, 1:3] = [[c, -s], [s, c]]  # inside the first pair
        turn[:, 3] *= -1.0
        np.testing.assert_allclose(canonicalize(f, vals, vecs @ turn)[1],
                                   canonicalize(f, vals, vecs)[1], rtol=0, atol=1e-12)


class TestInverseIteration:
    def test_bisection_value_on_a_zero_pivot_still_solves(self):
        # bisection stops at the 15th eigenvalue of this matrix where the
        # elimination of the band shifted by it meets an exact zero pivot,
        # so inverse iteration must shift a little off the bisection value
        g = build_grid("interval", 1.0, 64)
        f = ScalarField(g, np.cos(2 * np.pi * g.x))
        vals, _ = dense_spectrum(f, 15)
        np.testing.assert_allclose(spectrum(f, 15).eigenvalues, vals, rtol=1e-12)

    def test_singular_shifted_band_surfaces_as_convergence_failure(self, monkeypatch):
        # dgbtrf factors a circle's shifted band; info > 0 is an exactly zero pivot
        def singular(*args, **kwargs):
            lu, ipiv, _ = scipy.linalg.lapack.dgbtrf(*args, **kwargs)
            return lu, ipiv, 1

        monkeypatch.setattr("folflow.schrodinger.dgbtrf", singular)
        with pytest.raises(ConvergenceFailure, match="inverse iteration"):
            spectrum(ScalarField(circle(64), np.zeros(64)), 3)

    def test_singular_shifted_tridiagonal_surfaces_as_convergence_failure(self, monkeypatch):
        # dgttrf factors an interval's shifted tridiagonal
        def singular(*args, **kwargs):
            return (*scipy.linalg.lapack.dgttrf(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr("folflow.schrodinger.dgttrf", singular)
        with pytest.raises(ConvergenceFailure, match="inverse iteration at .* singular matrix"):
            spectrum(ScalarField(build_grid("interval", 1.0, 64), np.zeros(64)), 3)

    @pytest.mark.parametrize("topology", ["circle", "interval"])
    def test_one_factorization_solves_as_solve_banded(self, topology):
        # factor once, solve twice: the same bits as two solve_banded calls
        # (gbsv on a circle's band, gtsv on an interval's tridiagonal)
        g = build_grid(topology, 2.0, 257)
        f = ScalarField(g, np.random.default_rng(7).standard_normal(257))
        _, band = _band(f)
        u = len(band) // 2
        shifted = band.copy()
        shifted[u] -= 0.37
        x = np.random.default_rng(8).standard_normal(band.shape[1])
        solve = _shifted_solver(band, 0.37)
        for _ in range(2):
            want = scipy.linalg.solve_banded((u, u), shifted, x, check_finite=False)
            x = solve(x)
            assert np.array_equal(x, want)


class TestValidation:
    def test_corrupted_eigenpair_is_rejected(self):
        f = ScalarField(circle(64), np.cos(circle(64).x))
        dec = spectrum(f, 4)
        vals = dec.eigenvalues.copy()
        vals[2] += 1e-3
        with pytest.raises(ConvergenceFailure, match="eigenpair residual .* too large"):
            _validate_decomposition(f, SpectralDecomposition(vals, dec.eigenfunctions))

    def test_non_orthogonal_pair_is_rejected(self):
        # e1 and e2 share one eigenvalue on a flat circle, so e1 twice
        # passes the residual check
        f = ScalarField(circle(64), np.zeros(64))
        dec = spectrum(f, 3)
        funcs = (dec.eigenfunctions[0], dec.eigenfunctions[1], dec.eigenfunctions[1])
        with pytest.raises(ConvergenceFailure, match="not orthonormal"):
            _validate_decomposition(f, SpectralDecomposition(dec.eigenvalues, funcs))


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
