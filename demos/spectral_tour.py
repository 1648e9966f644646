"""
Spectral toolbox for the fiber operator -d^2/dx^2 - f
=====================================================

Ground state by shift-invert Lanczos, a dense cross-check, eigenvalue
counting against the Weyl slope, partial-sum reconstruction, and a live
measurement of the spectral gap out of the heat semigroup.
"""
import numpy as np

from folflow import ScalarField, build_grid, integrate
from folflow.parabolic import PERIODIC, HeatStepper, StepperConfig
from folflow.scenarios import fit_decay_rate
from folflow.schrodinger import (
    dense_spectrum,
    eigencount,
    expand,
    ground_state,
    spectrum,
    weyl_theta,
)

grid = build_grid("circle", 2 * np.pi, 256)
f = ScalarField(grid, 0.2 * (1.0 + np.cos(grid.x)))

gs = ground_state(f)
dense_vals, _ = dense_spectrum(f, 2)
print("cosine well f = 0.2 (1 + cos x) on the unit-speed circle, N = 256")
print(f"  lambda0 = {gs.lambda0:.9f}   (dense eigensolver: {dense_vals[0]:.9f})")
print(f"  lambda1 = {gs.lambda1:.9f}   (dense eigensolver: {dense_vals[1]:.9f})")
print(f"  gap     = {gs.gap:.9f}")
print(f"  lower bound lambda0 >= -max f: {gs.lambda0:.6f} >= {-np.max(f.values):.6f}")

# counting function vs the Weyl slope theta = length / pi
dec = spectrum(f, 12)
print(f"\neigenvalues below 4.0: {eigencount(dec, 4.0)}"
      f" (Weyl prediction ~ {weyl_theta(grid) * np.sqrt(4.0):.1f})")

# partial sums of the expansion converge monotonically in L^2
target = ScalarField(grid, np.exp(0.3 * np.cos(2 * grid.x)))
coeffs = expand(target, dec)
print("\nL^2 error of the m-term reconstruction of exp(0.3 cos 2x):")
for m in (1, 3, 5, 9, 12):
    recon = np.zeros(grid.n_points)
    for c, ef in zip(coeffs[:m], dec.eigenfunctions[:m]):
        recon += c * ef.values
    err = np.sqrt(integrate(ScalarField(grid, (target.values - recon) ** 2)))
    print(f"  m = {m:2d}: {err:.3e}")

# the same gap, measured dynamically: seed the semigroup with the ground
# state plus an odd perturbation and watch the projected residual decay
u = ScalarField(grid, gs.e0.values + 0.3 * np.sin(grid.x))
stepper = HeatStepper(grid, f, StepperConfig(1e-3, 1.0, boundary=PERIODIC))
ts, resids = [], []
for k in range(1, 5001):
    u = stepper.step(u)
    if k % 50 == 0:
        c = integrate(ScalarField(grid, u.values * gs.e0.values))
        ts.append(k * 1e-3)
        resids.append(np.max(np.abs(u.values - c * gs.e0.values)) / abs(c))
fit = fit_decay_rate(np.array(ts), np.array(resids))
print(f"\nsemigroup decay rate {fit.rate:.6f} vs spectral gap {gs.gap:.6f}"
      f" (ratio {fit.rate / gs.gap:.4f})")
