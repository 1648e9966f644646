"""
Normalized flow and the sign of the limiting curvature
======================================================

The normalized evolution drives Sc_mix - |T|^2 to the constant n*lambda0,
where lambda0 is the bottom eigenvalue of the operator -d^2/dx^2 - betaD.
Whether the limiting mixed curvature itself ends up positive depends on how
much twist |T|^2 the initial data carries: enough twist beats the negative
spectral term, none leaves it negative.
"""
import numpy as np

from folflow import ScalarField, build_grid
from folflow.scenarios import positivity_verdict, run_normalized_flow

grid = build_grid("circle", 2 * np.pi, 256)
n = 2
betaD = ScalarField(grid, 0.2 * (1.0 + np.cos(grid.x)))
ones = ScalarField(grid, np.ones(grid.n_points))


def run(T2_uniform, t_end):
    return run_normalized_flow(
        ones, betaD, ScalarField(grid, np.full(grid.n_points, T2_uniform)), n,
        dt=1e-3, t_end=t_end, record_every=500,
    )


# horizon chosen as 12 / (n * gap): enough for the deviation to drop below 1e-5
twisted = run(16.0, 5.904)
print(f"spectral data: lambda0 = {twisted.ground.lambda0:.6f}, "
      f"gap = {twisted.ground.gap:.6f}, Phi = n*lambda0 = {twisted.Phi:.6f}")

print(f"\n{'t':>6} {'sup |scmix-T2 - Phi|':>22} {'conservation drift':>20}")
for t, dev, drift in zip(
    twisted.series["t"][::2],
    twisted.series["sup_dev_scmix"][::2],
    twisted.series["conservation_drift"][::2],
):
    print(f"{t:6.3f} {dev:22.3e} {drift:20.3e}")

report = positivity_verdict(twisted)
print(f"\nwith |T|^2(0) = 16: limiting Sc_mix min = {report.min_value:.4f}, "
      f"positive everywhere: {report.positive_everywhere}")
print(f"threshold ratio (needed uniform twist / max betaD): {report.threshold_ratio:.4f}")

# drop the twist and the sign flips: the limit is Phi = n*lambda0 < 0
bare = run(0.0, 5.904)
bare_report = positivity_verdict(bare)
print(f"with |T|^2(0) = 0:  limiting Sc_mix min = {bare_report.min_value:.4f}, "
      f"positive everywhere: {bare_report.positive_everywhere}")
