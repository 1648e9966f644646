"""Mixed-curvature quantities of a totally geodesic fiber with extrinsic data.

Conventions for a one-dimensional fiber with n-dimensional orthogonal
distribution: H is the trace of the shape operators, |b|^2 the squared norm
of the second fundamental form, and beta_D = (n*|b|^2 - |H|^2) / n^2 >= 0
measures how far the distribution is from being umbilical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentData
from .fiber import (
    ScalarField,
    VectorAlongFiber,
    _diff1,
    divergence,
    grad_log,
)

_AGREE_TOL = 1e-12


@dataclass(frozen=True)
class ExtrinsicData:
    """Pointwise extrinsic data of the orthogonal distribution along one fiber."""

    n: int
    b_norm_sq: ScalarField
    H: VectorAlongFiber
    T_norm_sq: ScalarField
    principal_curvatures: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"distribution rank must be at least 1, got {self.n}")
        grid = self.H.grid
        if self.b_norm_sq.grid != grid or self.T_norm_sq.grid != grid:
            raise ValueError("extrinsic fields live on different grids")
        if np.min(self.T_norm_sq.values) < 0.0:
            raise ValueError("|T|^2 must be nonnegative")
        scale = 1.0 + float(np.max(np.abs(self.b_norm_sq.values)))
        gap = self.n * self.b_norm_sq.values - self.H.values ** 2
        if np.min(gap) < -_AGREE_TOL * self.n * scale:
            raise ValueError("n*|b|^2 >= |H|^2 fails; data are not realizable")
        if self.principal_curvatures is not None:
            k = np.array(self.principal_curvatures, dtype=float, copy=True)
            if k.shape != (grid.n_points, self.n):
                raise ValueError(
                    f"principal curvatures must have shape {(grid.n_points, self.n)}"
                )
            k.flags.writeable = False
            object.__setattr__(self, "principal_curvatures", k)


def beta_D(data: ExtrinsicData) -> ScalarField:
    """Non-umbilicity function (n*|b|^2 - |H|^2)/n^2.

    When principal curvatures are supplied the pairwise-difference formula
    sum_{i<j} (k_i - k_j)^2 / n^2 is evaluated too, and the two routes must
    agree pointwise to within 1e-12.
    """
    n = data.n
    general = (n * data.b_norm_sq.values - data.H.values ** 2) / (n * n)
    if data.principal_curvatures is not None:
        k = data.principal_curvatures
        pair = np.zeros(k.shape[0])
        for i in range(n):
            for j in range(i + 1, n):
                pair += (k[:, i] - k[:, j]) ** 2
        pair /= n * n
        scale = 1.0 + float(np.max(np.abs(k))) ** 2
        dev = float(np.max(np.abs(pair - general)))
        if dev > _AGREE_TOL * scale:
            raise InconsistentData(
                f"trace-form and pairwise beta_D disagree by {dev:g}; "
                "principal curvatures do not match |b|^2 and H"
            )
        general = pair
    return ScalarField(data.H.grid, general)


def sc_mix_minus_T2(H: VectorAlongFiber, n: int, betaD: ScalarField) -> ScalarField:
    """Sc_mix - |T|^2 evaluated from the velocity: div H - |H|^2/n - n*beta_D."""
    if betaD.grid != H.grid:
        raise ValueError("fields live on different grids")
    div = divergence(H).values
    return ScalarField(H.grid, div - H.values ** 2 / n - n * betaD.values)


def riccati_residual(k: ScalarField, K: ScalarField) -> float:
    """Sup norm of dk/dx - k^2 - K, the surface-of-revolution Riccati relation.

    On interval grids the two nodes nearest each end are skipped: k itself
    already carries one-sided end stencils, and differentiating it again
    does not compose to second order there.
    """
    if K.grid != k.grid:
        raise ValueError("fields live on different grids")
    return float(_riccati_residual(k.values, K.values, k.grid.spacing, k.grid.periodic))


def _riccati_residual(k: np.ndarray, K: np.ndarray, spacing: float, periodic: bool):
    """riccati_residual of each field (row) of k and K, along the last axis."""
    res = _diff1(k, spacing, periodic) - k ** 2 - K
    if not periodic:
        res = res[..., 2:-2]
    return np.max(np.abs(res), axis=-1)


def conserved_quantity(H: VectorAlongFiber, T2: ScalarField, n: int, eps_T: float):
    """2H - n * grad log |T| where |T|^2 > eps_T, with the evaluation mask.

    The mask keeps points whose neighbors also carry |T|^2 > eps_T, so the
    centered ratio derivative never touches the degenerate set.
    """
    return _conserved_quantity(H.values, T2.values, n, eps_T, H.grid.spacing, H.grid.periodic)


def _conserved_quantity(H: np.ndarray, t2: np.ndarray, n: int, eps_T: float, spacing: float,
                        periodic: bool):
    """conserved_quantity of each field (row) of H and t2, along the last axis."""
    inside = t2 > eps_T
    if periodic:
        mask = inside & np.roll(inside, 1, axis=-1) & np.roll(inside, -1, axis=-1)
    else:
        mask = inside.copy()
        mask[..., 1:-1] &= inside[..., 2:] & inside[..., :-2]
        mask[..., [0, -1]] = False
    # centered difference of log(T2)/2 on the mask, which equals grad log |T|
    # there; the mask keeps both neighbours inside, so the logarithm is only
    # ever taken at points bounded away from zero
    w = np.log(np.where(t2 > 0.0, t2, 1.0))
    return 2.0 * H - n * np.where(mask, 0.5 * _diff1(w, spacing, periodic), 0.0), mask


def surface_extrinsic_data(rho: ScalarField, T_norm_sq: ScalarField | None = None) -> ExtrinsicData:
    """Extrinsic data of a surface of revolution with profile rho > 0 (n = 1)."""
    grid = rho.grid
    k = grad_log(rho, -1.0)
    if T_norm_sq is None:
        T_norm_sq = ScalarField(grid, np.zeros(grid.n_points))
    return ExtrinsicData(
        n=1,
        b_norm_sq=ScalarField(grid, k.values ** 2),
        H=VectorAlongFiber(grid, k.values),
        T_norm_sq=T_norm_sq,
        principal_curvatures=k.values.reshape(-1, 1),
    )
