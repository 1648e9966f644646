"""Discrete Schrodinger operator Hf = -u_xx - f*u and its low spectrum.

The ground state and the first excited value come from shift-invert
Lanczos on the sparse matrix, the lowest eigenvalue alone in O(n) from a
bordered tridiagonal (spectral_report's bound).  The partial spectra come
from an independent banded route: bisection on the band for the
eigenvalues, inverse iteration for the eigenvectors, and one canonical basis
per eigenspace.  A dense symmetric eigensolve of the same matrix stays as
the reference that route is compared against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs, dpttrf, dpttrs
from scipy.sparse.linalg import eigsh

from .errors import ConvergenceFailure, refuse
from .fiber import FiberGrid, ScalarField, integrate

# fixed seed of the probe vectors that start inverse iteration and fix each
# eigenspace's basis and signs
_PROBE_SEED = 20240607


def _diagonal(f: ScalarField) -> tuple[np.ndarray, float]:
    """Diagonal of the operator over the active nodes, and 1/h^2: neighbouring
    nodes couple through -1/h^2."""
    g = f.grid
    inv = 1.0 / (g.spacing * g.spacing)
    return 2.0 * inv - (f.values if g.periodic else f.values[1:-1]), inv


def assemble_operator(f: ScalarField) -> sp.csr_matrix:
    """Matrix of -d2/dx2 - diag(f) over the active nodes.

    Active nodes are all nodes on a circle, where two corner entries wrap
    round, and the interior nodes of an interval (homogeneous Dirichlet
    ends).  The matrix is symmetric; entries that are zero are not stored.
    """
    diag, inv = _diagonal(f)
    size = diag.size
    cols = np.arange(size)[:, None] + np.arange(-1, 2)
    data = np.stack([np.full(size, -inv), diag, np.full(size, -inv)], axis=1)
    if f.grid.periodic:  # columns ascend along each row
        cols[0], cols[-1] = (0, 1, size - 1), (0, size - 2, size - 1)
        data[0], data[-1] = data[0, [1, 2, 0]], data[-1, [2, 0, 1]]
    keep = (cols >= 0) & (cols < size) & (data != 0.0)
    indptr = np.concatenate(([0], np.cumsum(np.sum(keep, axis=1))))
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(size, size))


def _band(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The operator as a band of half-width u, band[u + i - j, j] =
    A[order[i], order[j]] for |i - j| <= u (the storage of solve_banded;
    its first u + 1 rows are the upper storage of eig_banded), and the
    order of the active nodes along it.  An interval is tridiagonal
    (u = 1).  A circle taken in the order 0, n-1, 1, n-2, ... is
    pentadiagonal (u = 2): each node sits two places from its neighbours,
    except the two pairs at the ends of the order."""
    diag, inv = _diagonal(f)
    size = diag.size
    if not f.grid.periodic:
        band = np.zeros((3, size))
        band[0, 1:] = band[2, :-1] = -inv
        band[1] = diag
        return np.arange(size), band
    order = np.empty(size, dtype=np.intp)
    order[0::2] = np.arange((size + 1) // 2)
    order[1::2] = size - 1 - np.arange(size // 2)
    band = np.zeros((5, size))
    band[0, 2:] = band[4, :-2] = -inv
    band[1, [1, -1]] = band[3, [0, -2]] = -inv
    band[2] = diag[order]
    return order, band


def _to_field(grid: FiberGrid, active: np.ndarray) -> ScalarField:
    vec = ScalarField(grid, active if grid.periodic else np.pad(active, 1))
    norm = np.sqrt(integrate(vec * vec))
    return ScalarField(grid, vec.values / norm)


@dataclass(frozen=True)
class GroundState:
    lambda0: float
    e0: ScalarField
    lambda1: float

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def _lanczos_shift(f: ScalarField) -> float:
    """ground_state's shift, below -max(f), which lies under the whole spectrum."""
    return -float(np.max(f.values)) - 1.0


def operator_rules(f: ScalarField) -> list[str]:
    """The rules the operator A of potential f breaks, each message named by
    its config key: 1/h^2 finite, and A - sigma*I strictly diagonally dominant
    as computed for the Lanczos shift sigma, so that its factorization cannot
    break down.  The shift's margin of 1 holds in exact arithmetic; rounding
    swallows it next to a potential of 1e308, or to a 2/h^2 of 1e17."""
    g = f.grid
    if not 1.0 / (g.spacing * g.spacing) < np.inf:
        return [f"grid: spacing {g.spacing:g} squares to {g.spacing * g.spacing:g}, "
                "whose reciprocal is out of the float range"]
    (diag, inv), sigma = _diagonal(f), _lanczos_shift(f)
    off = np.full(diag.size, 2.0 * inv)
    if not g.periodic:
        off[[0, -1]] = inv  # an interval's end nodes have one neighbour
    margin = float(np.min(diag - sigma - off))
    return [] if margin > 0.0 else [
        f"potential: rounding swallows the Lanczos shift's margin: A - sigma*I with sigma = "
        f"-max(potential) - 1 = {sigma:g} is not strictly diagonally dominant (margin {margin:g})"]


def ground_state(f: ScalarField) -> GroundState:
    """Lowest two eigenvalues and the positive unit ground state of -d2/dx2 - f.

    Shift-invert Lanczos (ARPACK) about _lanczos_shift; a potential that
    breaks an operator rule is refused with its messages.  The start vector
    is fixed, so repeats are bit-identical, and has no reflection symmetry,
    so an odd first excited state is reachable when the potential is even.
    """
    refuse(operator_rules(f))
    g = f.grid
    mat = assemble_operator(f)
    size = mat.shape[0]
    idx = 2.0 * np.pi * np.arange(size) / size
    start = 1.0 + 0.5 * np.sin(idx) + 0.25 * np.cos(3.0 * idx + 1.0)
    try:
        vals, vecs = eigsh(mat, k=2, sigma=_lanczos_shift(f), v0=start)
    except RuntimeError as err:
        # ArpackError, or a singular factorization that operator_rules did not foresee
        raise ConvergenceFailure(f"shift-invert Lanczos failed: {err}") from err
    order = np.argsort(vals)
    lam0, lam1 = (float(v) for v in vals[order])
    v0 = vecs[:, order[0]]
    if np.sum(v0) < 0.0:
        v0 = -v0
    if np.min(v0) <= 0.0:
        raise ConvergenceFailure("computed ground state is not strictly positive")
    return GroundState(lam0, _to_field(g, v0), lam1)


def _bordered(f: ScalarField):
    """sigma -> (ok, s, s') for A = [[a0, b^T], [b, T]] bordered by its node of
    largest f, where the ground state is large, so that T's lowest eigenvalue mu0
    is well above A's.  T is the rest in cyclic order (off[i] couples i and i + 1),
    split in two on an interval.  ok: sigma < mu0; s = a0 - sigma - b^T y with
    y = (T - sigma)^-1 b, and s' = -1 - |y|^2."""
    diag, inv = _diagonal(f)
    off = np.append(np.full(diag.size - 1, -inv), -inv if f.grid.periodic else 0.0)
    k = int(np.argmin(diag))
    diag, off = np.roll(diag, -k), np.roll(off, -k)
    b = np.r_[off[0], np.zeros(diag.size - 3), off[-1]]

    def schur(sigma: float):
        d, e, info = dpttrf(diag[1:] - sigma, off[1:-1])
        if info != 0:
            return False, np.nan, np.nan
        y = dpttrs(d, e, b)[0]
        # no BLAS reduction, so no dependence on the thread count
        return True, diag[0] - sigma - (b[0] * y[0] + b[-1] * y[-1]), -1.0 - np.sum(y * y)
    return schur


def lowest_eigenvalue(f: ScalarField) -> float:
    """Lowest eigenvalue of -d2/dx2 - f in O(n): the one root of _bordered's s
    below mu0, where s decreases and is concave (Haynsworth: A - sigma has the
    negative eigenvalues of T - sigma and of s).  Newton steps, bisecting when
    one leaves the bracket from -max f (Gershgorin) to the least sigma with
    s <= 0 or past mu0, down to 8 eps of the matrix's scale."""
    g, schur, hi = f.grid, _bordered(f), np.inf
    sigma = lo = -float(np.max(f.values if g.periodic else f.values[1:-1]))
    tol = 8.0 * np.finfo(float).eps * (1.0 / g.spacing ** 2 + float(np.max(np.abs(f.values))))
    for _ in range(128):  # bisection alone takes about 50
        ok, s, ds = schur(sigma)
        if ok and not np.isfinite(s / ds):
            raise ConvergenceFailure(f"Schur complement not finite at {sigma:g}")
        lo, hi = (sigma, hi) if ok and s > 0.0 else (lo, sigma)
        step = -s / ds if ok else np.inf
        if abs(step) <= tol:
            return float(min(max(sigma + step, lo), hi))
        if hi - lo <= tol:
            return float(0.5 * (lo + hi))
        sigma = sigma + step if lo < sigma + step < hi else 0.5 * (lo + hi)
    raise ConvergenceFailure("lowest eigenvalue not found in 128 iterations")


def dense_spectrum(f: ScalarField, m: int):
    """Dense symmetric eigensolve of the assembled matrix: the reference the
    banded route of spectrum is compared against.

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


def _tolerance(lam):
    """Residual tolerance of eigenpairs with eigenvalues lam, relative to the
    size of their eigenvectors."""
    return 1e-8 * (abs(lam) + 1.0)


def _clusters(vals: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [a, b) of the eigenspaces of ascending vals: each holds the
    eigenvalues within the residual tolerance of its first one."""
    starts = [0]
    for j in range(1, len(vals)):
        if vals[j] - vals[starts[-1]] > _tolerance(vals[starts[-1]]):
            starts.append(j)
    return list(zip(starts, starts[1:] + [len(vals)]))


def _probes(size: int, count: int) -> np.ndarray:
    """Fixed random columns with no symmetry; column j does not depend on count."""
    return np.random.default_rng(_PROBE_SEED).standard_normal((count, size)).T


def _energy(f: ScalarField, vecs: np.ndarray) -> np.ndarray:
    """Gram matrix <v_i, A v_j> of active columns vecs in the form
    sum (dv)^2 / h^2 - sum f v^2, which rounds with the size of the
    eigenvalues instead of the size of A."""
    g = f.grid
    if g.periodic:
        diff, pot = np.diff(vecs, axis=0, append=vecs[:1]), f.values
    else:
        zero = np.zeros((1, vecs.shape[1]))
        diff, pot = np.diff(vecs, axis=0, prepend=zero, append=zero), f.values[1:-1]
    return diff.T @ diff / (g.spacing * g.spacing) - vecs.T @ (pot[:, None] * vecs)


def canonicalize(f: ScalarField, vals: np.ndarray, vecs: np.ndarray):
    """Eigenpairs with one canonical basis per eigenspace.

    vals ascending and orthonormal eigenvector columns vecs over the active
    nodes, covering whole eigenspaces (see _clusters).  Each eigenspace's
    eigenvalues become the Rayleigh-Ritz values of its block, and its basis
    the Gram-Schmidt orthonormalization of the projections of the probes of
    its indices, each vector's product with its probe positive.  So the
    result does not depend on the basis vecs held, nor on its signs.
    """
    vals, vecs = np.array(vals, dtype=float), np.array(vecs, dtype=float)
    probes = _probes(*vecs.shape)
    for a, b in _clusters(vals):
        block = vecs[:, a:b]
        vals[a:b] = np.linalg.eigvalsh(_energy(f, block))
        basis, tri = np.linalg.qr(block.T @ probes[:, a:b])
        vecs[:, a:b] = block @ (basis * np.copysign(1.0, np.diag(tri)))
    return vals, vecs


def _shifted_solver(band: np.ndarray, shift: float):
    """x -> (A - shift*I)^-1 x for A in band storage, factored once with
    partial pivoting (dgttrf for an interval's tridiagonal, dgbtrf for a
    circle's band: solve_banded's gtsv and gbsv split into factor and
    solve), or None when the shifted matrix is singular."""
    u = len(band) // 2
    if u == 1:
        dl, d, du, du2, ipiv, info = dgttrf(band[2, :-1], band[1] - shift, band[0, 1:])
        return None if info else lambda x: dgttrs(dl, d, du, du2, ipiv, x)[0]
    ab = np.zeros((3 * u + 1, band.shape[1]))  # u rows of room for the fill-in
    ab[u:] = band
    ab[2 * u] -= shift
    lu, ipiv, info = dgbtrf(ab, u, u, overwrite_ab=1)
    return None if info else lambda x: dgbtrs(lu, u, u, x, ipiv)[0]


def _inverse_iteration(order: np.ndarray, band: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Orthonormal columns over the active nodes, one per eigenvalue of
    vals: two solves with the band shifted by the eigenvalue and factored
    once, from the probe of its index, each result orthogonalized against
    every earlier column, so that columns of eigenvalues closer together
    than bisection resolves stay orthogonal in or out of one eigenspace."""
    # bisection ends where a pivot of the elimination changes sign, so it
    # can be exactly zero there: shift a few units of roundoff of A below
    nudge = 4.0 * np.finfo(float).eps * np.max(np.sum(np.abs(band), axis=0))
    probes = _probes(band.shape[1], len(vals))[order]
    vecs = np.empty_like(probes)
    for j, lam in enumerate(vals):
        solve = _shifted_solver(band, lam - nudge)
        if solve is None:
            raise ConvergenceFailure(f"inverse iteration at {lam:g} failed: singular matrix")
        x = probes[:, j]
        for _ in range(2):
            x = solve(x)
            x -= vecs[:, :j] @ (vecs[:, :j].T @ x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
    natural = np.empty_like(vecs)
    natural[order] = vecs
    return natural


def spectrum_rules(grid: FiberGrid, m: int) -> list[str]:
    """The rule spectrum's count of eigenpairs m breaks, named by its config
    key modes: 1 <= m <= the number of active nodes."""
    size = grid.n_points if grid.periodic else grid.n_points - 2
    return [] if 1 <= m <= size else [f"modes must be between 1 and {size}, got {m}"]


def spectrum(f: ScalarField, m: int) -> SpectralDecomposition:
    """First m eigenpairs, eigenfunctions orthonormal in the discrete L2
    product, with one canonical basis per eigenspace (see canonicalize):
    spectrum(f, m) is the first m pairs of spectrum(f, m + k) to roundoff.

    Bisection on the band gives the eigenvalues up to the end of the
    eigenspace that holds the m-th, inverse iteration their eigenvectors.
    """
    g = f.grid
    refuse(spectrum_rules(g, m))
    order, band = _band(f)
    size = len(order)
    count = min(m + 2, size)  # a circle's eigenspaces come in pairs
    while True:
        vals = scipy.linalg.eig_banded(band[:len(band) // 2 + 1], eigvals_only=True,
                                       select="i", select_range=(0, count - 1),
                                       check_finite=False)
        # the last eigenspace found may go on past the count
        end = count if count == size else _clusters(vals)[-1][0]
        if end >= m:
            break
        count = min(2 * count, size)
    vals, vecs = canonicalize(f, vals[:end], _inverse_iteration(order, band, vals[:end]))
    dec = SpectralDecomposition(vals[:m], tuple(_to_field(g, vecs[:, j]) for j in range(m)))
    _validate_decomposition(f, dec)
    return dec


def _validate_decomposition(f: ScalarField, dec: SpectralDecomposition):
    g = f.grid
    funcs = np.stack([ef.values for ef in dec.eigenfunctions], axis=1)
    active = funcs if g.periodic else funcs[1:-1]
    resid = np.max(np.abs(assemble_operator(f) @ active - active * dec.eigenvalues), axis=0)
    norm = np.max(np.abs(active), axis=0)
    bad = np.flatnonzero(resid > _tolerance(dec.eigenvalues) * np.maximum(norm, 1.0))
    if bad.size:
        raise ConvergenceFailure(f"eigenpair residual {resid[bad[0]]:g} too large")
    weights = np.full(g.n_points, g.spacing)
    if not g.periodic:  # the trapezoid rule of integrate
        weights[[0, -1]] *= 0.5
    gram = funcs.T @ (weights[:, None] * funcs)
    if np.max(np.abs(gram - np.eye(len(gram)))) > 1e-8:
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
