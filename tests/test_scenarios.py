"""Scenario drivers: revolution surfaces, twisted products, and the normalized flow."""
import numpy as np
import pytest
import scipy.fft

from folflow import parabolic, scenarios
from folflow.config import _FIELD_DEFAULTS, parse_config_text
from folflow.errors import GapTooSmall, NotConverged, ProfileDegenerate, ValidationError
from folflow.families import build_field
from folflow.fiber import ScalarField, _diff1, _diff2, build_grid, derivative, integrate
from folflow.scenarios import (
    Trajectory,
    cole_hopf_rows,
    fit_decay_rate,
    linear_interpolant,
    normalized_scmix,
    positivity_verdict,
    run_normalized_flow,
    run_surface_of_revolution,
    run_twisted_product,
    surface_evolution_crosscheck,
)


def circle(n, length=2 * np.pi):
    return build_grid("circle", length, n)


def cosine_well(g):
    return ScalarField(g, 0.2 * (1.0 + np.cos(g.x)))


# ---------------------------------------------------------------------------
# surfaces of revolution


class TestSurfaceRun:
    def test_interval_profile_relaxes_toward_interpolant(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.5, record_every=1000)
        dev0 = np.max(np.abs(traj.fields[0]["rho"] - interp.values))
        devT = np.max(np.abs(traj.fields[-1]["rho"] - interp.values))
        # the bump decays at rate pi^2, three decades by t = 0.5
        assert devT <= dev0 * np.exp(-np.pi ** 2 * 0.5) * 1.01
        assert np.all(np.diff(traj.series["sup_K"]) <= 1e-12)

    def test_arc_length_constraint_tracked(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.1, record_every=100)
        assert np.max(traj.series["arc_residual"]) <= 1e-12

    def test_axial_coordinate_monotone_and_anchored(self):
        g = build_grid("interval", 1.0, 201)
        rho0 = ScalarField(g, linear_interpolant(g, 0.5, 0.8).values)
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.0)
        h = traj.fields[0]["h"]
        assert h[0] == 0.0
        assert np.all(np.diff(h) > 0.0)
        # profile slope 0.3 gives axial slope sqrt(1 - 0.09)
        assert np.max(np.abs(np.diff(h) / g.spacing - np.sqrt(0.91))) <= 1e-10

    def test_conformal_factor_matches_accumulated_curvature(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=1.0, record_every=1000)
        assert np.max(traj.series["conformal_dev"]) <= 1e-5

    def test_closed_profile_total_curvature_vanishes(self):
        # a closed revolution profile bounds a torus: signed curvature
        # integrates to zero against the area element at every instant
        g = circle(256)
        rho0 = ScalarField(g, 3.0 + 0.5 * np.cos(g.x))
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.5, record_every=2500)
        for rec in traj.fields:
            total = integrate(ScalarField(g, rec["K"] * rec["rho"]))
            assert abs(total) <= 1e-12
            assert integrate(ScalarField(g, rec["K"])) <= 0.0

    def test_pinched_profile_rejected(self):
        # diffusion can only raise the minimum, so a nonpositive radius is
        # caught at the initial state
        g = circle(128)
        rho0 = ScalarField(g, 0.5 + 0.6 * np.cos(g.x))
        with pytest.raises(ProfileDegenerate):
            run_surface_of_revolution(rho0, dt=1e-4, t_end=1.0)

    def test_steep_initial_slope_rejected(self):
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, 1.0 + 1.2 * g.x)
        with pytest.raises(ProfileDegenerate):
            run_surface_of_revolution(rho0, dt=1e-4, t_end=0.1)

    def test_steep_falling_slope_rejected(self):
        # the guard takes a row's largest and least slope, not |slope|
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, 2.5 - 1.2 * g.x)
        with pytest.raises(ProfileDegenerate, match=r"slope \|rho_x\| = 1.2 exceeds 1"):
            run_surface_of_revolution(rho0, dt=1e-4, t_end=0.1)

    @pytest.mark.parametrize("n, steps", [(201, 400), (4097, 20), (201, 10)])
    def test_a_block_holds_the_states_that_fit_the_budget(self, monkeypatch, n, steps):
        # 201 nodes run a sine series that fills every step for the block
        # hook, 4097 nodes march; the buffer holds _BLOCK_DOUBLES // n
        # states, 163 and 7, or the run's steps if fewer
        filled = []
        for cls in (parabolic.HeatSeries, parabolic._Stepper):
            monkeypatch.setattr(cls, "fill", lambda self, ks, out, _fill=cls.fill:
                                filled.append(len(out)) or _fill(self, ks, out))
        g = build_grid("interval", 1.0, n)
        rho0 = ScalarField(g, 0.5 + 0.3 * g.x + 0.1 * np.sin(np.pi * g.x))
        run_surface_of_revolution(rho0, dt=1e-6, t_end=steps * 1e-6, record_every=50)
        rows = {201: 163, 4097: 7}[n]
        assert rows == parabolic._BLOCK_DOUBLES // n
        assert filled == [rows] * (steps // rows) + [steps % rows] * (steps % rows > 0)


class TestSurfaceCrosscheck:
    def test_curvature_evolution_identities(self):
        g = build_grid("interval", 1.0, 201)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.05, record_every=50)
        res = surface_evolution_crosscheck(traj)
        assert res["k_residual"] <= 5e-3
        assert res["K_residual"] <= 5e-2

    def test_needs_three_uniform_records(self):
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, linear_interpolant(g, 0.5, 0.8).values)
        traj = run_surface_of_revolution(rho0, dt=1e-3, t_end=0.0)
        with pytest.raises(ValueError):
            surface_evolution_crosscheck(traj)

    @pytest.mark.parametrize("rows", [1, 7, "default"])
    def test_running_crosscheck_equals_the_crosscheck_of_every_record(self, monkeypatch,
                                                                      rows):
        # 100 steps recorded every 7: the records after step 98 and the
        # off-grid step 100 fall in one block of 7 rows, or of the default
        # budget, which holds every step
        if rows != "default":
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", rows * 101)
        g = build_grid("interval", 1.0, 101)
        rho0 = ScalarField(g, 0.5 + 0.3 * g.x + 0.1 * np.sin(np.pi * g.x))
        full = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.01, record_every=7)
        lean = run_surface_of_revolution(rho0, dt=1e-4, t_end=0.01, record_every=7,
                                         snapshots=(0.005,))
        # the identities' residuals over the k and K of every record on the
        # record grid at once, centred differences in time and space
        k, K = (np.array([fields[name] for t, fields in zip(full.series["t"], full.fields)
                          if round(t / 1e-4) % 7 == 0]) for name in ("k", "K"))
        assert len(k) == 15
        nk = _diff1(K[1:-1], g.spacing, False)
        nnk = _diff1(nk, g.spacing, False)
        res_k = (k[2:] - k[:-2]) / (2.0 * 7e-4) - nk
        res_cap = (K[2:] - K[:-2]) / (2.0 * 7e-4) - (nnk - 2.0 * k[1:-1] * nk)
        expected = {"k_residual": float(np.max(np.abs(res_k[:, 3:-3]))),
                    "K_residual": float(np.max(np.abs(res_cap[:, 3:-3])))}
        assert surface_evolution_crosscheck(full) == expected
        assert surface_evolution_crosscheck(lean) == expected

    def test_velocity_tracks_transport_law(self):
        # profile curvature evolved through the quadratic transport equation
        # shadows the curvature of the diffusing profile
        from folflow.fiber import VectorAlongFiber
        from folflow.parabolic import PERIODIC, BurgersStepper, StepperConfig

        g = circle(256)
        rho0 = ScalarField(g, 3.0 + 0.5 * np.cos(g.x))
        dt = 1e-3
        traj = run_surface_of_revolution(rho0, dt=dt, t_end=1.0, record_every=1000)
        stepper = BurgersStepper(g, ScalarField(g, np.zeros(256)),
                                 StepperConfig(dt, 1.0, boundary=PERIODIC))
        H = VectorAlongFiber(g, traj.fields[0]["k"])
        for _ in range(1000):
            H = stepper.step(H)
        assert np.max(np.abs(H.values - traj.fields[-1]["k"])) <= 1e-5


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
        traj = run_twisted_product((f0,), 2, dt=1e-3, t_end=1.0, record_every=100)
        fT = traj.fields[-1]["f_0"]
        exact = 0.5 * (1.0 + 0.3 * np.exp(-2.0) * np.cos(g.x))
        rel = np.max(np.abs(fT - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-5

    def test_slices_relax_to_their_fiber_means(self):
        g = circle(256)
        amps = [0.3 + 0.1 * np.cos(b) for b in (0.0, np.pi / 3, 2.0)]
        slices = tuple(ScalarField(g, a * (1.0 + 0.3 * np.cos(g.x))) for a in amps)
        traj = run_twisted_product(slices, 2, dt=1e-3, t_end=6.0, record_every=1000)
        assert traj.series["sup_dist_to_mean"][-1] <= 1e-6
        np.testing.assert_allclose(traj.fiber_means, amps, atol=1e-12)
        assert np.max(traj.series["mass_drift"]) <= 1e-12

    def test_mass_holds_to_roundoff_after_6000_steps(self):
        # each record is one transform of the initial slices, whose mean
        # coefficient the symbol keeps exactly: no drift builds up per step
        g = circle(256)
        slices = tuple(ScalarField(g, b + 0.3 * np.cos(g.x)) for b in (0.4, 0.45, 0.5))
        traj = run_twisted_product(slices, 2, dt=1e-3, t_end=6.0, record_every=500)
        mass = max(integrate(f) for f in slices)
        assert len(traj.series["t"]) == 13
        assert np.max(traj.series["mass_drift"]) <= 4 * np.finfo(float).eps * mass

    def test_velocity_supremum_decays(self):
        g = circle(128)
        f0 = ScalarField(g, 1.0 + 0.4 * np.sin(g.x))
        traj = run_twisted_product((f0,), 1, dt=1e-3, t_end=2.0, record_every=200)
        sup_h = traj.series["sup_H"]
        assert np.all(np.diff(sup_h) < 0.0)

    def test_input_validation(self):
        g = circle(64)
        good = ScalarField(g, np.full(64, 1.0))
        with pytest.raises(ValueError):
            run_twisted_product((ScalarField(build_grid("interval", 1.0, 64), np.ones(64)),), 1,
                                dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run_twisted_product((good,), 0, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run_twisted_product((), 1, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run_twisted_product((ScalarField(g, np.cos(g.x)),), 1, dt=1e-3, t_end=0.1)


# ---------------------------------------------------------------------------
# normalized flow


class TestNormalizedRun:
    def test_flat_potential_is_a_fixed_point(self):
        g = circle(128)
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), ScalarField(g, np.zeros(128)),
                                   ScalarField(g, np.full(128, 4.0)), 2, dt=1e-3, t_end=1.0)
        final = traj.fields[-1]
        assert abs(traj.ground.lambda0) <= 1e-12
        assert np.max(np.abs(final["scmixT2"])) <= 1e-10
        assert np.max(np.abs(final["T2"] - 4.0)) <= 1e-10

    def test_constant_potential_shifts_the_limit_exactly(self):
        g = circle(128)
        c = 0.7
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), ScalarField(g, np.full(128, c)),
                                   ScalarField(g, np.full(128, 4.0)), 2, dt=1e-3, t_end=1.0)
        assert traj.ground.lambda0 == pytest.approx(-c, abs=1e-8)
        assert traj.Phi == pytest.approx(-2 * c, abs=1e-8)
        report = positivity_verdict(traj)
        assert report.positive_everywhere
        assert report.min_value == pytest.approx(4.0 - 1.4, abs=1e-8)

    def test_zero_T2_yields_negative_limit(self):
        g = circle(128)
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), cosine_well(g),
                                   ScalarField(g, np.zeros(128)), 2, dt=1e-3, t_end=6.0)
        report = positivity_verdict(traj)
        assert not report.positive_everywhere
        # with no twist left the limit is exactly the normalization constant
        assert report.min_value == pytest.approx(traj.Phi, abs=1e-5)
        assert report.min_value < 0.0

    def test_verdict_requires_convergence(self):
        g = circle(128)
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), cosine_well(g),
                                   ScalarField(g, np.full(128, 16.0)), 2, dt=1e-3, t_end=0.1)
        with pytest.raises(NotConverged):
            positivity_verdict(traj)

    def test_small_gap_rejected_up_front(self):
        g = circle(128)
        one = ScalarField(g, np.full(128, 1.0))
        with pytest.raises(GapTooSmall):
            run_normalized_flow(one, cosine_well(g), one, 2, dt=1e-3, t_end=0.1, gap_min=2.0)

    def test_input_validation(self):
        g = circle(64)
        beta = ScalarField(g, np.zeros(64))
        one = ScalarField(g, np.ones(64))
        with pytest.raises(ValueError):
            run_normalized_flow(one, ScalarField(g, np.cos(g.x)), one, 2, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run_normalized_flow(ScalarField(g, np.cos(g.x)), beta, one, 2, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            run_normalized_flow(one, beta, ScalarField(g, np.full(64, -1.0)), 2, dt=1e-3,
                                t_end=0.1)
        with pytest.raises(ValueError):
            run_normalized_flow(one, beta, one, 0, dt=1e-3, t_end=0.1)

    def test_conserved_combination_drift_stays_small(self):
        g = circle(128)
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), cosine_well(g),
                                   ScalarField(g, np.full(128, 16.0)), 2, dt=1e-3, t_end=1.0,
                                   record_every=50)
        assert np.max(traj.series["betaD_drift"]) == 0.0
        assert np.max(traj.series["conservation_drift"]) <= 1e-6

    def test_velocity_approaches_its_spectral_limit(self):
        g = circle(128)
        traj = run_normalized_flow(ScalarField(g, np.full(128, 1.0)), cosine_well(g),
                                   ScalarField(g, np.full(128, 16.0)), 2, dt=1e-3, t_end=4.0,
                                   record_every=100)
        h_dev = traj.series["h_dev"]
        assert h_dev[-1] <= 1e-3
        assert h_dev[-1] < h_dev[0]


# ---------------------------------------------------------------------------
# records


def _short_run(flow: str, snapshots=None):
    """A few steps of one stepped flow, recorded every 3 steps and at the end."""
    g = circle(32)
    bump = ScalarField(g, 1.0 + 0.3 * np.cos(g.x))
    if flow == "surface":
        line = build_grid("interval", 1.0, 33)
        rho0 = ScalarField(line, 0.5 + 0.3 * line.x + 0.05 * np.sin(np.pi * line.x))
        return run_surface_of_revolution(rho0, dt=1e-3, t_end=0.01, record_every=3,
                                         snapshots=snapshots)
    if flow == "twisted":
        return run_twisted_product((bump, bump * 0.5), 2, dt=1e-3, t_end=0.01, record_every=3,
                                   snapshots=snapshots)
    if flow == "normalized":
        return run_normalized_flow(bump, ScalarField(g, 0.2 * bump.values), bump, 2, dt=1e-3,
                                   t_end=0.01, record_every=3, snapshots=snapshots)
    return cole_hopf_rows(bump, ScalarField(g, 0.2 * bump.values), 1.0, 1e-3, 0.01, 3,
                          snapshots=snapshots)


class TestRecords:
    @pytest.mark.parametrize("rows", [1, "default"])
    @pytest.mark.parametrize("flow", ["surface", "twisted", "normalized", "cole_hopf"])
    def test_recorded_arrays_are_read_only_and_own_their_memory(self, monkeypatch, flow, rows):
        # no view of the march state or block buffer, or of a block the
        # twisted product evaluates in closed form, and none shared between
        # records, whatever the block length: a budget of one value gives
        # blocks of one state, the default one block for the run.  The
        # normalized flow's betaD, an input held fixed, is the one read-only
        # array of its input in every record
        if rows == 1:
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 1)
        buffers = []

        def keep(run):
            def kept(*args, **kwargs):
                buffers.append(run(*args, **kwargs))
                return buffers[-1]
            return kept

        monkeypatch.setattr(scenarios, "march", keep(parabolic.march))
        monkeypatch.setattr(np.fft, "irfft", keep(np.fft.irfft))
        monkeypatch.setattr(scipy.fft, "idst", keep(scipy.fft.idst))
        traj = _short_run(flow)
        if flow == "normalized":
            held = [record.pop("betaD") for record in traj.fields]
            assert all(values is traj.betaD.values for values in held)
            assert not traj.betaD.values.flags.writeable
        arrays = [values for record in traj.fields for values in record.values()]
        assert len(traj.fields) == len(traj.series["t"]) == 5
        assert not any(values.flags.writeable for values in arrays)
        assert buffers and all(buf is not None for buf in buffers)
        for i, values in enumerate(arrays):
            assert not any(np.shares_memory(values, buf) for buf in buffers)
            assert not any(np.shares_memory(values, other) for other in arrays[i + 1:])

    @pytest.mark.parametrize("rows", [1, "default"])
    @pytest.mark.parametrize("flow", ["surface", "normalized"])
    def test_recorded_curvatures_are_those_of_the_recorded_state(self, monkeypatch, flow, rows):
        # K and Sc_mix - |T|^2 come from the running integral's block; they
        # have the bits of the recorded state's own, formed alone
        if rows == 1:
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 1)
        traj = _short_run(flow)
        g = traj.grid
        for fields in traj.fields:
            if flow == "surface":
                rho = fields["rho"]
                assert np.array_equal(fields["K"], -_diff2(rho, g.spacing, g.periodic) / rho)
            else:
                assert np.array_equal(fields["scmixT2"],
                                      normalized_scmix(fields["u"], traj.betaD, traj.n))

    def test_snapshot_records_are_the_nearest_in_time_order(self):
        # records after steps 0, 3, 6, 9 and the off-grid last step 10 of dt = 0.25,
        # at t = 0, 0.75, 1.5, 2.25 and 2.5
        def snapshot_rows(wanted):
            return Trajectory(circle(8), 0.25, 2.5, 3, wanted).snapshot_rows

        assert snapshot_rows([0.25]) == [0]  # between two records
        assert snapshot_rows([1.125]) == [1]  # a tie goes to the earlier record
        assert snapshot_rows([1.6, 1.4]) == [2]  # twice on one record
        assert snapshot_rows([2.45, 0.25]) == [0, 4]  # the off-grid last record

    @pytest.mark.parametrize("rows", [1, "default"])
    @pytest.mark.parametrize("flow", ["surface", "twisted", "normalized", "cole_hopf"])
    def test_runs_given_snapshots_keep_those_records_and_the_last(self, monkeypatch, flow,
                                                                   rows):
        if rows == 1:
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 1)
        full = _short_run(flow)
        # records at t = 0, 0.003, 0.006, 0.009, 0.01: the first is nearest
        # 0.001, the third nearest both 0.0052 and 0.0058
        wanted = (0.001, 0.0052, 0.0058)
        lean = _short_run(flow, snapshots=wanted)
        assert all(fields is not None for fields in full.fields)
        assert lean.series.keys() == full.series.keys()
        assert all(np.array_equal(lean.series[key], full.series[key]) for key in full.series)
        assert [i for i, fields in enumerate(lean.fields) if fields is not None] == [0, 2, 4]
        assert lean.snapshot_rows == [0, 2]
        for kept, every in ((lean.fields[-1], full.fields[-1]),
                            *zip(lean.snapshots.values(), (full.fields[i] for i in (0, 2)))):
            assert kept.keys() == every.keys()
            assert all(np.array_equal(kept[name], every[name]) for name in kept)
        assert list(lean.snapshots) == full.series["t"][[0, 2]].tolist()


def _ones(g):
    return ScalarField(g, np.ones(g.n_points))


class TestSharedGrid:
    """A driver reads its grid from its input fields, so they must share one."""

    # u0, betaD, T2_0 / u0, forcing / two slices; the odd field has the same
    # n_points on a fiber of another length, so its values alone look right
    @pytest.mark.parametrize("run", [
        lambda same, odd: run_normalized_flow(odd, same, same, 2, dt=1e-3, t_end=0.01),
        lambda same, odd: run_normalized_flow(same, odd, same, 2, dt=1e-3, t_end=0.01),
        lambda same, odd: run_normalized_flow(same, same, odd, 2, dt=1e-3, t_end=0.01),
        lambda same, odd: cole_hopf_rows(odd, same, 1.0, 1e-3, 0.01, 5),
        lambda same, odd: run_twisted_product((same, odd), 2, dt=1e-3, t_end=0.01),
    ], ids=["normalized_u0", "normalized_betaD", "normalized_T2_0", "cole_hopf_u0",
            "twisted_slice"])
    def test_input_on_another_grid_rejected(self, run):
        with pytest.raises(ValueError, match="^input fields live on different grids$"):
            run(_ones(circle(64)), _ones(circle(64, 1.0)))


@pytest.mark.parametrize("topology, n, pays", [
    ("interval", 201, True), ("interval", 225, True), ("interval", 200, False),
    ("interval", 640, False), ("interval", 577, True), ("interval", 641, False),
    ("circle", 199, False), ("circle", 448, True), ("circle", 3072, True),
    ("circle", 3584, False)])
def test_a_surface_runs_in_closed_form_below_the_cut_on_a_fast_length(topology, n, pays):
    # FFT lengths 2(n - 1) on an interval: 448 = 2^6 * 7 is fast, 398 = 2 *
    # 199 and 1278 = 2 * 3^2 * 71 are not; 1152 is below the interval's
    # cut and 1280 at it; a circle's length is n, cut at 3584
    assert scenarios._series_pays(build_grid(topology, 1.0, n)) is pays


class TestRunningIntegral:
    @pytest.mark.parametrize("shape", [(1, 201), (64, 201), (64, 256), (8, 4096), (3, 2, 5)])
    def test_sums_in_step_order_as_a_loop_does(self, shape):
        # totals read at a few rows of each block, or at every row as when
        # every step is recorded, and the block's last, must give a loop's
        # bits; the first block starts the total off at random
        for every_row in (False, True):
            rng = np.random.default_rng(11)
            first = rng.standard_normal(shape[1:])
            integral = scenarios._RunningIntegral(lambda terms: np.multiply(terms, 0.25, terms))
            integral.add(first[None])
            want, before, running = [], first, np.zeros(shape[1:])
            for block in (rng.standard_normal((5, *shape[1:])), rng.standard_normal(shape) * 1e3,
                          rng.standard_normal(shape)):
                integral.add(block.copy())
                for row in block:
                    running = running + 0.25 * (before + row)
                    want.append(running)
                    before = row
                rows = (np.arange(len(block)) if every_row else
                        np.unique(rng.integers(0, len(block), 3)))
                assert np.array_equal(integral.at(rows), np.array(want[-len(block):])[rows])
                assert np.array_equal(integral.at(rows[-1:]),
                                      want[-len(block) + rows[-1]][None])
            assert np.array_equal(integral.last(), want[-1])

    def test_the_initial_record_reads_zero(self):
        integral = scenarios._RunningIntegral(lambda terms: terms)
        integral.add(np.ones((1, 4)))
        assert np.array_equal(integral.at(np.array([0])), np.zeros((1, 4)))
        assert np.array_equal(integral.now, np.ones((1, 4)))
        block = np.full((2, 4), 2.0)
        integral.add(block)
        assert np.array_equal(integral.last(), np.full(4, 7.0))
        assert integral.now is block


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


# ---------------------------------------------------------------------------
# input rules, stated once for the driver and the parser

_COSINE = {"family": "cosine_perturbed", "base": 0.1, "amplitude": 0.3, "mode": 1}

# the driver a scenario runs, called on its input fields as the runner calls it
_DRIVERS = {
    "twisted": lambda f: run_twisted_product((f["initial"],), 1, dt=1e-3, t_end=0.1),
    "normalized": lambda f: run_normalized_flow(f["initial"], f["potential"], f["t2_initial"],
                                                1, dt=1e-3, t_end=0.1),
    "cole_hopf_check": lambda f: cole_hopf_rows(f["initial"], f["potential"], 1.0, dt=1e-3,
                                                t_end=0.1, record_every=10),
}


@pytest.mark.parametrize("scenario, topology, fields", [
    ("twisted", "interval", {}),
    ("twisted", "circle", {"initial": _COSINE}),
    ("normalized", "circle", {"potential": {"family": "constant", "value": -1.0e-9}}),
    ("normalized", "circle", {"t2_initial": {"family": "constant", "value": -1.0}}),
    ("normalized", "circle", {"initial": _COSINE}),
    ("cole_hopf_check", "circle", {"initial": _COSINE}),
], ids=["twisted_on_an_interval", "non_positive_slice", "negative_betaD", "negative_T2",
        "non_positive_u0", "non_positive_cole_hopf_initial"])
def test_a_rule_the_driver_and_the_parser_share_has_one_message(scenario, topology, fields):
    # the fields the scenario reads: the given ones, else the parser's defaults
    specs = {key: fields.get(key, default) for key, default in _FIELD_DEFAULTS.items()
             if key in scenarios.SCENARIOS[scenario].keys}
    text = (f"scenario: {scenario}\ngrid: {{topology: {topology}, length: 6.283185307179586, "
            f"n_points: 32}}\ntime: {{dt: 1.0e-3, t_end: 0.1}}\n"
            + "".join(f"{key}: {spec}\n" for key, spec in specs.items())
            # one slice, 1.0 * initial, the field the twisted driver is given
            + ("base_values: [1.0]\n" if scenario == "twisted" else ""))
    with pytest.raises(ValidationError) as parsed:
        parse_config_text(text)
    grid = build_grid(topology, 6.283185307179586, 32)
    with pytest.raises(ValueError) as driven:
        _DRIVERS[scenario]({key: build_field(grid, spec["family"],
                                             {k: v for k, v in spec.items() if k != "family"})
                            for key, spec in specs.items()})
    assert str(parsed.value).startswith(f"{scenario}: ")
    assert str(driven.value) == str(parsed.value)[len(f"{scenario}: "):]
