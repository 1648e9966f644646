"""Transforms between positive potentials and leafwise mean-curvature velocities.

A strictly positive u corresponds to the velocity H = -n * grad(log u); the
inverse map integrates -H/n to a log-potential and exponentiates, with the
overall scale fixed by the gauge integral(u) = fiber length.

Both maps work on circle fibers, where the log derivative and its inverse
are evaluated spectrally, so the pair invert each other to rounding for
smooth data.  On an interval both raise ValueError.
"""
from __future__ import annotations

import numpy as np

from .errors import NonPositiveField, NotConservative
from .fiber import FiberGrid, ScalarField, VectorAlongFiber, fourier_derivative, integrate

CIRCULATION_TOL = 1e-8


def velocity_from_potential_fn(u: ScalarField, n: float) -> VectorAlongFiber:
    """H = -n * d/dx log(u) for strictly positive u on a circle, which
    fourier_derivative requires."""
    m = float(np.min(u.values))
    if m <= 0.0:
        raise NonPositiveField(f"velocity map needs a positive field, min value {m}")
    logs = ScalarField(u.grid, np.log(u.values))
    return VectorAlongFiber(u.grid, -float(n) * fourier_derivative(logs).values)


def _antiderivative_circle(vals: np.ndarray, grid: FiberGrid) -> np.ndarray:
    # spectral antiderivative of a zero-mean periodic sample
    m = grid.n_points
    k = 2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing)
    spec = np.fft.rfft(vals)
    spec[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        spec[1:] = spec[1:] / (1j * k[1:])
    if m % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, m)


def potential_from_velocity(H: VectorAlongFiber, n: float) -> ScalarField:
    """Reconstruct u > 0 with -n*(grad u)/u = H, normalized to integral(u) = length.

    The velocity must have (numerically) zero circulation; a circulation
    beyond CIRCULATION_TOL * length means no single-valued potential exists.
    """
    g = H.grid
    if not g.periodic:
        raise ValueError("the velocity/potential maps are defined on circle fibers only")
    circ = integrate(H)
    if abs(circ) > CIRCULATION_TOL * g.length:
        raise NotConservative(
            f"circulation {circ:g} exceeds {CIRCULATION_TOL:g} * length; "
            "no single-valued potential"
        )
    psi = _antiderivative_circle(-H.values / float(n), g)
    u = np.exp(psi - np.max(psi))
    return ScalarField(g, u * (g.length / integrate(ScalarField(g, u))))


def roundtrip_residual(u: ScalarField, n: float) -> float:
    """Sup distance between u (gauge-normalized) and the inverse of its velocity."""
    back = potential_from_velocity(velocity_from_potential_fn(u, n), n)
    normed = u.values * (u.grid.length / integrate(u))
    return float(np.max(np.abs(back.values - normed)))
