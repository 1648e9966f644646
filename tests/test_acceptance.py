"""Acceptance suite: nine numbered criteria, one verdict line each.

Each test records its verdict with the session reporter (printed as a block
in the terminal summary) and asserts the documented tolerance plus a
wall-clock budget.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from folflow.cli import main
from folflow.fiber import ScalarField, build_grid, grad_log, integrate
from folflow.parabolic import (
    PERIODIC,
    BurgersStepper,
    HeatStepper,
    StepperConfig,
    march,
    record_steps,
)
from folflow.schrodinger import dense_spectrum, ground_state
from folflow.scenarios import (
    fit_decay_rate,
    linear_interpolant,
    positivity_verdict,
    run_normalized_flow,
    run_surface_of_revolution,
    run_twisted_product,
    surface_evolution_crosscheck,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def normalized_run():
    """Shared flow over the cosine well, horizon 12/(n*gap), used by 3-5."""
    g = build_grid("circle", 2 * np.pi, 256)
    beta = ScalarField(g, 0.2 * (1.0 + np.cos(g.x)))
    start = time.perf_counter()
    traj = run_normalized_flow(ScalarField(g, np.full(256, 1.0)), beta,
                               ScalarField(g, np.full(256, 16.0)), n=2, dt=1e-3, t_end=5.904,
                               record_every=24)
    return traj, beta, time.perf_counter() - start


def test_criterion_1_transform_equivalence(acceptance_verdicts):
    start = time.perf_counter()

    def sup_diff(n_pts, dt):
        g = build_grid("circle", 2 * np.pi, n_pts)
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
    order = np.log2(coarse / fine)
    elapsed = time.perf_counter() - start
    ok = coarse <= 1e-3 and order >= 1.8 and elapsed < 5.0
    acceptance_verdicts.record(1, "velocity transform equivalence", ok,
            f"sup diff {coarse:.3e} <= 1e-3, order {order:.2f} >= 1.8, {elapsed:.2f}s < 5s")
    assert coarse <= 1e-3
    assert order >= 1.8
    assert elapsed < 5.0


def test_criterion_2_ground_state_correctness(acceptance_verdicts):
    start = time.perf_counter()
    g512 = build_grid("circle", 2 * np.pi, 512)
    gs = ground_state(ScalarField(g512, np.zeros(512)))
    lam0_err = abs(gs.lambda0)
    e0_err = float(np.max(np.abs(gs.e0.values - (2 * np.pi) ** -0.5)))
    lam1_err = abs(gs.lambda1 - 1.0)

    g256 = build_grid("circle", 2 * np.pi, 256)
    rng = np.random.default_rng(42)
    margin = np.inf
    for _ in range(100):
        vals = np.zeros(256)
        for mode in range(1, 4):
            a, b = rng.normal(size=2)
            vals += a * np.cos(mode * g256.x) + b * np.sin(mode * g256.x)
        lam0 = ground_state(ScalarField(g256, vals)).lambda0
        margin = min(margin, lam0 + float(np.max(vals)))
    elapsed = time.perf_counter() - start
    ok = (lam0_err <= 1e-8 and e0_err <= 1e-8 and lam1_err <= 1e-3
          and margin >= 0.0 and elapsed < 10.0)
    acceptance_verdicts.record(2, "ground state correctness", ok,
            f"|lam0| {lam0_err:.1e} <= 1e-8, e0 err {e0_err:.1e} <= 1e-8, "
            f"|lam1-1| {lam1_err:.1e} <= 1e-3, bound margin {margin:.3f} >= 0, "
            f"{elapsed:.2f}s < 10s")
    assert lam0_err <= 1e-8
    assert e0_err <= 1e-8
    assert lam1_err <= 1e-3
    assert margin >= 0.0
    assert elapsed < 10.0


def test_criterion_3_exponential_rate(normalized_run, acceptance_verdicts):
    traj, beta, run_seconds = normalized_run
    start = time.perf_counter()
    dense_vals, _ = dense_spectrum(beta, 2)
    target = traj.n * float(dense_vals[1] - dense_vals[0])
    fit = fit_decay_rate(traj.series["t"], traj.series["sup_dev_scmix"])
    rel = abs(fit.rate - target) / target
    elapsed = run_seconds + (time.perf_counter() - start)
    ok = rel <= 0.10 and elapsed < 30.0
    acceptance_verdicts.record(3, "exponential convergence rate", ok,
            f"fitted {fit.rate:.4f} vs dense-oracle {target:.4f}, "
            f"rel dev {rel:.3f} <= 0.10, {elapsed:.2f}s < 30s")
    assert rel <= 0.10
    assert elapsed < 30.0


def test_criterion_4_limit_identity(normalized_run, acceptance_verdicts):
    traj, _, _ = normalized_run
    final_dev = float(traj.series["sup_dev_scmix"][-1])
    report = positivity_verdict(traj)

    # same well with no twist to start from: the limit drops to n*lambda0 < 0
    g = build_grid("circle", 2 * np.pi, 128)
    bare = run_normalized_flow(ScalarField(g, np.full(128, 1.0)),
                               ScalarField(g, 0.2 * (1.0 + np.cos(g.x))),
                               ScalarField(g, np.zeros(128)), n=2, dt=1e-3, t_end=6.0)
    bare_report = positivity_verdict(bare)
    ok = (final_dev <= 1e-5 and report.positive_everywhere
          and not bare_report.positive_everywhere and bare_report.min_value < 0.0)
    acceptance_verdicts.record(4, "limit identity and sign verdict", ok,
            f"final dev {final_dev:.3e} <= 1e-5, twisted start positive "
            f"(min {report.min_value:.3f}), bare start negative "
            f"(min {bare_report.min_value:.3f})")
    assert final_dev <= 1e-5
    assert report.positive_everywhere
    assert not bare_report.positive_everywhere
    assert bare_report.min_value < 0.0


def test_criterion_5_conservation_suite(normalized_run, acceptance_verdicts):
    traj, _, _ = normalized_run
    beta_drift = float(np.max(traj.series["betaD_drift"]))
    window = traj.series["t"] <= 5.0 + 1e-12
    drift = float(np.max(traj.series["conservation_drift"][window]))

    # fiber mass in plain heat-type runs, normalized per unit time
    g = build_grid("circle", 2 * np.pi, 128)
    heat = HeatStepper(g, None, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
    masses = []
    march(heat, 2.0 + np.sin(3 * g.x), 1e-3, record_steps(1e-3, 2.0, 2000),
          on_record=lambda ts, states: masses.extend(
              integrate(ScalarField(g, u)) for u in states))
    heat_drift = abs(masses[-1] - masses[0]) / 2.0

    tw = run_twisted_product((ScalarField(g, 1.0 + 0.3 * np.cos(g.x)),), 2, dt=1e-3, t_end=2.0,
                             record_every=500)
    tw_drift = float(np.max(tw.series["mass_drift"])) / 2.0

    ok = (beta_drift == 0.0 and drift <= 1e-6
          and heat_drift <= 1e-10 and tw_drift <= 1e-10)
    acceptance_verdicts.record(5, "conservation suite", ok,
            f"betaD drift {beta_drift:.1f} == 0, combination drift {drift:.3e} <= 1e-6 "
            f"on [0, 5], mass drift/time {max(heat_drift, tw_drift):.2e} <= 1e-10")
    assert beta_drift == 0.0
    assert drift <= 1e-6
    assert heat_drift <= 1e-10
    assert tw_drift <= 1e-10


def test_criterion_6_surface_limit(acceptance_verdicts):
    start = time.perf_counter()
    g = build_grid("interval", 1.0, 201)
    interp = linear_interpolant(g, 0.5, 0.8)
    rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
    traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=3.0, record_every=1000)
    final = traj.fields[-1]
    profile_dev = float(np.max(np.abs(final["rho"] - interp.values)))
    sup_K = float(np.max(np.abs(final["K"])))
    arc = float(np.max(traj.series["arc_residual"]))
    conformal = float(np.max(traj.series["conformal_dev"]))
    elapsed = time.perf_counter() - start
    ok = (profile_dev <= 1e-4 and sup_K <= 1e-3 and arc <= 1e-8
          and conformal <= 1e-4 and elapsed < 10.0)
    acceptance_verdicts.record(6, "surface flattens to the cone patch", ok,
            f"profile dev {profile_dev:.2e} <= 1e-4, sup K {sup_K:.2e} <= 1e-3, "
            f"arc residual {arc:.1e} <= 1e-8, metric routes agree {conformal:.2e} <= 1e-4, "
            f"{elapsed:.2f}s < 10s")
    assert profile_dev <= 1e-4
    assert sup_K <= 1e-3
    assert arc <= 1e-8
    assert conformal <= 1e-4
    assert elapsed < 10.0


def test_criterion_7_curvature_identity_orders(acceptance_verdicts):
    from folflow.curvature import riccati_residual
    from folflow.fiber import laplacian

    # static identity on three profile families
    profiles = {
        "cone": lambda x: 1.0 + 0.3 * x,
        "sphere": lambda x: 2.0 * np.sin((x + 0.6) / 2.0),
        "bump": lambda x: 1.0 + 0.1 * np.sin(np.pi * x / 1.5),
    }
    static_orders = {}
    for name, profile in profiles.items():
        res = []
        for n_pts in (101, 201, 401):
            g = build_grid("interval", 1.5, n_pts)
            rho = ScalarField(g, profile(g.x))
            k = ScalarField(g, grad_log(rho, -1.0).values)
            K = ScalarField(g, -laplacian(rho).values / rho.values)
            res.append(riccati_residual(k, K))
        static_orders[name] = float(np.min(np.log2(np.array(res[:-1]) / np.array(res[1:]))))

    # evolution identities under joint (h, dt) refinement
    def cross(n_pts, dt):
        g = build_grid("interval", 1.0, n_pts)
        interp = linear_interpolant(g, 0.5, 0.8)
        rho0 = ScalarField(g, interp.values + 0.1 * np.sin(np.pi * g.x))
        traj = run_surface_of_revolution(rho0, dt=dt, t_end=0.05, record_every=50)
        return surface_evolution_crosscheck(traj)

    coarse = cross(201, 1e-4)
    fine = cross(401, 5e-5)
    evo_orders = {
        key: float(np.log2(coarse[key] / fine[key]))
        for key in ("k_residual", "K_residual")
    }
    worst = min(min(static_orders.values()), min(evo_orders.values()))
    ok = worst >= 1.8
    acceptance_verdicts.record(7, "curvature identity orders", ok,
            "static orders " + ", ".join(f"{k} {v:.2f}" for k, v in static_orders.items())
            + "; evolution orders "
            + ", ".join(f"{k} {v:.2f}" for k, v in evo_orders.items())
            + " (all >= 1.8)")
    for name, order in {**static_orders, **evo_orders}.items():
        assert order >= 1.8, (name, order)


def test_criterion_8_twisted_product_limit(acceptance_verdicts):
    g = build_grid("circle", 2 * np.pi, 256)
    f0 = ScalarField(g, 0.5 * (1.0 + 0.3 * np.cos(g.x)))
    traj = run_twisted_product((f0,), 2, dt=1e-3, t_end=1.0, record_every=100)
    exact = 0.5 * (1.0 + 0.3 * np.exp(-2.0) * np.cos(g.x))
    rel = float(np.max(np.abs(traj.fields[-1]["f_0"] - exact))
                / np.max(np.abs(exact)))

    amps = [0.3 + 0.1 * np.cos(b) for b in (0.0, np.pi / 3, 2.0)]
    slices = tuple(ScalarField(g, a * (1.0 + 0.3 * np.cos(g.x))) for a in amps)
    relax = run_twisted_product(slices, 2, dt=1e-3, t_end=6.0, record_every=1000)
    mean_dev = float(relax.series["sup_dist_to_mean"][-1])
    means_err = float(np.max(np.abs(relax.fiber_means - np.array(amps))))
    ok = rel <= 1e-4 and mean_dev <= 1e-6 and means_err <= 1e-12
    acceptance_verdicts.record(8, "twisted-product limit", ok,
            f"closed-form rel err {rel:.3e} <= 1e-4 at t=1, "
            f"distance to fiber means {mean_dev:.3e} <= 1e-6 at t=6")
    assert rel <= 1e-4
    assert mean_dev <= 1e-6
    assert means_err <= 1e-12


def test_criterion_9_determinism_and_golden_configs(tmp_path, acceptance_verdicts):
    start = time.perf_counter()
    names = sorted(p.name for p in CONFIGS.glob("*.yaml"))
    assert len(names) == 5
    mismatch = []
    for name in names:
        cfg = CONFIGS / name
        outs = []
        for attempt in ("first", "second"):
            out = tmp_path / name.replace(".yaml", "") / attempt
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
            data = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            payload = json.loads((out / "summary.json").read_text())
            payload.pop("meta")
            outs.append((data, payload))
        if outs[0] != outs[1]:
            mismatch.append(name)
    elapsed = time.perf_counter() - start
    ok = not mismatch and elapsed < 120.0
    acceptance_verdicts.record(9, "determinism and golden configs", ok,
            f"5 configs x 2 runs byte-identical (data) and equal (summary sans "
            f"wall clock), {elapsed:.1f}s < 120s")
    assert not mismatch, mismatch
    assert elapsed < 120.0
