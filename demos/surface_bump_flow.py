"""
Flattening a surface of revolution
==================================

A profile rho(x) over an interval defines a surface of revolution.  The
flow contracts the metric where Gaussian curvature is positive and expands
it where negative, so a bumped profile relaxes toward the straight line
between its boundary radii: the flat cone patch.
"""
import numpy as np

from folflow import ScalarField, build_grid
from folflow.scenarios import linear_interpolant, run_surface_of_revolution

grid = build_grid("interval", 1.0, 201)
straight = linear_interpolant(grid, 0.5, 0.8)

# sin(pi x) vanishes at both ends, so the boundary radii stay admissible
rho0 = ScalarField(grid, straight.values + 0.1 * np.sin(np.pi * grid.x))

traj = run_surface_of_revolution(rho0, dt=1e-4, t_end=3.0, record_every=2000)

print("surface of revolution, bump over the 0.5 -> 0.8 cone patch")
print(f"{'t':>6} {'sup |K|':>12} {'sup |rho - line|':>18}")
for t, fields in zip(traj.series["t"], traj.fields):
    dev = float(np.max(np.abs(fields["rho"] - straight.values)))
    supK = float(np.max(np.abs(fields["K"])))
    print(f"{t:6.2f} {supK:12.3e} {dev:18.3e}")

# the arclength parametrization is preserved exactly by construction
print(f"max arc residual over the run: {np.max(traj.series['arc_residual']):.2e}")

# both metric reconstructions (profile-based and conformal-factor-based)
# describe the same surface
print(f"max disagreement between metric routes: {np.max(traj.series['conformal_dev']):.2e}")
