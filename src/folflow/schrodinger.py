"""Discrete Schrodinger operator Hf = -u_xx - f*u and its low spectrum.

The ground state and the first excited value come from shift-invert
Lanczos on the sparse matrix; a dense symmetric eigensolve over the same
matrix serves as an independent route and provides the decompositions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import ConvergenceFailure
from .fiber import FiberGrid, ScalarField, integrate


def assemble_operator(f: ScalarField) -> sp.csr_matrix:
    """Matrix of -d2/dx2 - diag(f) over the active nodes.

    Active nodes are all nodes on a circle and the interior nodes of an
    interval (homogeneous Dirichlet ends).  The matrix is symmetric.
    """
    g = f.grid
    h = g.spacing
    inv = 1.0 / (h * h)
    if g.periodic:
        n = g.n_points
        main = np.full(n, 2.0 * inv) - f.values
        off = np.full(n - 1, -inv)
        corner = [-inv]
        return sp.diags([corner, off, main, off, corner], [-(n - 1), -1, 0, 1, n - 1],
                        format="csr")
    m = g.n_points - 2
    main = np.full(m, 2.0 * inv) - f.values[1:-1]
    off = np.full(m - 1, -inv)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _embed(grid: FiberGrid, active: np.ndarray) -> np.ndarray:
    if grid.periodic:
        return active
    full = np.zeros(grid.n_points)
    full[1:-1] = active
    return full


def _to_field(grid: FiberGrid, active: np.ndarray) -> ScalarField:
    vec = ScalarField(grid, _embed(grid, active))
    norm = np.sqrt(integrate(vec * vec))
    return ScalarField(grid, vec.values / norm)


@dataclass(frozen=True)
class GroundState:
    lambda0: float
    e0: ScalarField
    lambda1: float

    def __post_init__(self):
        vals = self.e0.values
        interior = vals if self.e0.grid.periodic else vals[1:-1]
        if np.min(interior) <= 0.0:
            raise ValueError("ground state must be strictly positive")
        if abs(integrate(self.e0 * self.e0) - 1.0) > 1e-10:
            raise ValueError("ground state must have unit L2 norm")
        if self.lambda1 < self.lambda0 - 1e-10 * (1.0 + abs(self.lambda0)):
            raise ValueError("eigenvalues out of order")

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def ground_state(f: ScalarField) -> GroundState:
    """Lowest two eigenvalues and the positive unit ground state of -d2/dx2 - f.

    Shift-invert Lanczos (ARPACK) about a shift below -max(f), which lies
    under the whole spectrum.  The start vector is fixed, so repeats are
    bit-identical, and has no reflection symmetry, so an odd first excited
    state is reachable when the potential is even.
    """
    g = f.grid
    mat = assemble_operator(f)
    size = mat.shape[0]
    idx = 2.0 * np.pi * np.arange(size) / size
    start = 1.0 + 0.5 * np.sin(idx) + 0.25 * np.cos(3.0 * idx + 1.0)
    try:
        vals, vecs = eigsh(mat, k=2, sigma=-float(np.max(f.values)) - 1.0, v0=start)
    except ArpackError as err:
        raise ConvergenceFailure(f"shift-invert Lanczos failed: {err}") from err
    order = np.argsort(vals)
    lam0, lam1 = (float(v) for v in vals[order])
    v0 = vecs[:, order[0]]
    if np.sum(v0) < 0.0:
        v0 = -v0
    if np.min(v0) <= 0.0:
        raise ConvergenceFailure("computed ground state is not strictly positive")
    return GroundState(lam0, _to_field(g, v0), lam1)


def dense_spectrum(f: ScalarField, m: int):
    """Dense symmetric eigensolve of the assembled matrix (independent route).

    Returns the lowest m eigenpairs over the active nodes as (eigenvalues,
    columns), ascending, with columns orthonormal in the plain dot product.
    """
    return scipy.linalg.eigh(assemble_operator(f).toarray(), subset_by_index=[0, m - 1])


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenfunctions: tuple[ScalarField, ...]

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        if len(self.eigenfunctions) != len(vals):
            raise ValueError("eigenvalue/eigenfunction count mismatch")


def spectrum(f: ScalarField, m: int) -> SpectralDecomposition:
    """First m eigenpairs, eigenfunctions orthonormal in the discrete L2 product."""
    g = f.grid
    size = g.n_points if g.periodic else g.n_points - 2
    if not 1 <= m <= size:
        raise ValueError(f"m must be between 1 and {size}, got {m}")
    vals, vecs = dense_spectrum(f, m)
    fields = []
    for j in range(m):
        col = vecs[:, j]
        anchor = int(np.argmax(np.abs(col)))
        if col[anchor] < 0.0:
            col = -col
        fields.append(_to_field(g, col))
    dec = SpectralDecomposition(vals, tuple(fields))
    _validate_decomposition(f, dec)
    return dec


def _validate_decomposition(f: ScalarField, dec: SpectralDecomposition):
    mat = assemble_operator(f)
    g = f.grid
    lam_scale = np.abs(dec.eigenvalues) + 1.0
    for lam, ef, scale in zip(dec.eigenvalues, dec.eigenfunctions, lam_scale):
        active = ef.values if g.periodic else ef.values[1:-1]
        resid = np.max(np.abs(mat @ active - lam * active))
        norm = np.max(np.abs(active))
        if resid > 1e-8 * scale * max(norm, 1.0):
            raise ConvergenceFailure(f"eigenpair residual {resid:g} too large")
    funcs = dec.eigenfunctions
    for i in range(len(funcs)):
        for j in range(i, len(funcs)):
            gram = integrate(funcs[i] * funcs[j])
            target = 1.0 if i == j else 0.0
            if abs(gram - target) > 1e-8:
                raise ConvergenceFailure("eigenfunctions are not orthonormal")


def expand(u: ScalarField, dec: SpectralDecomposition) -> np.ndarray:
    """Coefficients <u, e_j> in the discrete L2 product."""
    return np.array([integrate(u * ef) for ef in dec.eigenfunctions])


def eigencount(dec: SpectralDecomposition, lam: float) -> int:
    """Number of retained eigenvalues at or below lam."""
    return int(np.sum(dec.eigenvalues <= lam))


def weyl_theta(grid: FiberGrid) -> float:
    """Leading Weyl coefficient: eigencount(lam) ~ theta * sqrt(lam)."""
    return grid.length / np.pi
