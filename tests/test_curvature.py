"""Extrinsic-data bookkeeping, curvature identities, and drift diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folflow.errors import InconsistentData
from folflow.fiber import ScalarField, VectorAlongFiber, build_grid, grad_log
from folflow.scenarios import EPS_T
from folflow.curvature import (
    ExtrinsicData,
    beta_D,
    conserved_quantity,
    riccati_residual,
    sc_mix_minus_T2,
    surface_extrinsic_data,
)


def circle(n=128):
    return build_grid("circle", 2 * np.pi, n)


def from_principal_curvatures(grid, k) -> ExtrinsicData:
    """The extrinsic data of principal curvatures k, one row per node, with
    |T|^2 = 0: H and |b|^2 are the sums of k and of k^2 along each row."""
    k = np.asarray(k, dtype=float)
    return ExtrinsicData(
        n=k.shape[1],
        b_norm_sq=ScalarField(grid, np.sum(k * k, axis=1)),
        H=VectorAlongFiber(grid, np.sum(k, axis=1)),
        T_norm_sq=ScalarField(grid, np.zeros(grid.n_points)),
        principal_curvatures=k,
    )


class TestExtrinsicData:
    def test_cauchy_schwarz_violation_rejected(self):
        # |H|^2 > n |b|^2 cannot come from any set of shape operators
        g = circle(64)
        with pytest.raises(ValueError):
            ExtrinsicData(
                n=2,
                b_norm_sq=ScalarField(g, np.full(64, 0.1)),
                H=VectorAlongFiber(g, np.full(64, 1.0)),
                T_norm_sq=ScalarField(g, np.zeros(64)),
            )

    def test_negative_T2_rejected(self):
        g = circle(64)
        with pytest.raises(ValueError):
            ExtrinsicData(
                n=1,
                b_norm_sq=ScalarField(g, np.ones(64)),
                H=VectorAlongFiber(g, np.ones(64)),
                T_norm_sq=ScalarField(g, np.full(64, -1.0)),
            )


class TestBetaD:
    def test_umbilical_data_gives_zero(self):
        # equal principal curvatures in every direction
        g = circle(64)
        k = np.stack([0.4 * np.cos(g.x)] * 3, axis=1)
        data = from_principal_curvatures(g, k)
        assert np.max(np.abs(beta_D(data).values)) <= 1e-14

    def test_pairwise_difference_form(self):
        g = circle(64)
        k = np.stack([0.5 * np.cos(g.x), -0.2 * np.cos(g.x)], axis=1)
        data = from_principal_curvatures(g, k)
        expected = (k[:, 0] - k[:, 1]) ** 2 / 4.0
        np.testing.assert_allclose(beta_D(data).values, expected, atol=1e-14)

    def test_inconsistent_redundant_data_detected(self):
        g = circle(64)
        k = np.stack([0.5 * np.cos(g.x), -0.2 * np.cos(g.x)], axis=1)
        with pytest.raises(InconsistentData):
            beta_D(
                ExtrinsicData(
                    n=2,
                    b_norm_sq=ScalarField(g, (k ** 2).sum(axis=1) + 0.01),
                    H=VectorAlongFiber(g, k.sum(axis=1)),
                    T_norm_sq=ScalarField(g, np.zeros(64)),
                    principal_curvatures=k,
                )
            )

    def test_nonnegative_for_random_curvatures(self):
        g = circle(32)
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.normal(size=(32, 3))
            data = from_principal_curvatures(g, k)
            assert np.min(beta_D(data).values) >= -1e-13


class TestRiccatiIdentity:
    def test_cylinder_profile_exact(self):
        g = build_grid("interval", 2.0, 201)
        rho = ScalarField(g, np.full(201, 1.5))
        data = surface_extrinsic_data(rho)
        k = ScalarField(g, data.H.values)
        K = ScalarField(g, np.zeros(201))
        assert riccati_residual(k, K) == 0.0

    def test_exponential_horn_stencil_limited(self):
        # rho = e^{cx}: curvature along the profile is constant, so the only
        # residual left is the log-derivative stencil truncation
        g = build_grid("interval", 2.0, 201)
        c = 0.25
        rho = ScalarField(g, np.exp(c * g.x))
        k = grad_log(rho, -1.0)
        K = ScalarField(g, np.full(201, -c * c))
        assert riccati_residual(ScalarField(g, k.values), K) <= 1e-6

    @pytest.mark.parametrize(
        "profile",
        [
            lambda x: 1.0 + 0.3 * x,
            lambda x: 2.0 * np.sin((x + 0.6) / 2.0),
            lambda x: 1.0 + 0.1 * np.sin(np.pi * x / 2.0),
        ],
        ids=["cone", "sphere_cap", "bump"],
    )
    def test_second_order_on_static_profiles(self, profile):
        res = []
        for n in (101, 201, 401):
            g = build_grid("interval", 1.5, n)
            rho = ScalarField(g, profile(g.x))
            k = ScalarField(g, grad_log(rho, -1.0).values)
            from folflow.fiber import laplacian

            K = ScalarField(g, -laplacian(rho).values / rho.values)
            res.append(riccati_residual(k, K))
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(orders >= 1.8), (res, orders)
        assert res[0] <= 5e-3


class TestScMixForms:
    def test_velocity_form_matches_potential_form(self):
        # for H = -n grad log u the velocity expression collapses to the
        # Schrodinger quotient -n (u'' + beta u)/u up to stencil error
        g = circle(512)
        n = 2
        u = ScalarField(g, 2.0 + np.cos(g.x))
        beta = ScalarField(g, 0.2 * (1.0 + np.cos(g.x)))
        H = VectorAlongFiber(g, grad_log(u, -float(n)).values)
        from folflow.fiber import laplacian

        quotient = -n * (laplacian(u).values + beta.values * u.values) / u.values
        got = sc_mix_minus_T2(H, n, beta).values
        assert np.max(np.abs(got - quotient)) <= 5e-4

    def test_grid_mismatch_rejected(self):
        H = VectorAlongFiber(circle(64), np.zeros(64))
        beta = ScalarField(circle(128), np.zeros(128))
        with pytest.raises(ValueError):
            sc_mix_minus_T2(H, 1, beta)


class TestConservedQuantity:
    def test_exact_cancellation_when_T_tracks_H(self):
        # |T|^2 = C * u^4, H = -2 grad log u makes 2H - 2 grad log |T|
        # vanish identically in the sampled-log discretization (n = 2)
        g = circle(256)
        u = ScalarField(g, 2.0 + np.cos(g.x))
        H = grad_log(u, -2.0)
        T2 = ScalarField(g, 3.0 * u.values ** 4)
        q, mask = conserved_quantity(VectorAlongFiber(g, -H.values), T2, 2, EPS_T)
        assert np.all(mask)
        assert np.max(np.abs(q)) <= 1e-12

    def test_mask_shields_degenerate_set(self):
        g = build_grid("interval", 1.0, 101)
        t2 = np.where(np.abs(g.x - 0.5) < 0.2, 0.0, 1.0)
        H = VectorAlongFiber(g, np.zeros(101))
        q, mask = conserved_quantity(H, ScalarField(g, t2), 1, EPS_T)
        assert not mask[0] and not mask[-1]
        # no point of the zero plateau or its adjacent nodes is evaluated
        dead = np.abs(g.x - 0.5) < 0.2 + 0.5 * g.spacing
        assert not np.any(mask & dead)
        assert np.all(q[~mask] == 0.0)


class TestSurfaceExtrinsicData:
    def test_profile_curvature_is_minus_log_slope(self):
        g = circle(256)
        rho = ScalarField(g, 3.0 + 0.5 * np.cos(g.x))
        data = surface_extrinsic_data(rho)
        assert data.n == 1
        expected = grad_log(rho, -1.0).values
        np.testing.assert_array_equal(data.H.values, expected)
        # rank one is always umbilical
        assert np.max(np.abs(beta_D(data).values)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    c=st.floats(0.1, 2.0),
)
def test_beta_D_invariant_under_umbilical_shift(a, b, c):
    # adding the same function to every principal curvature changes H and
    # |b|^2 but never the non-umbilicity
    g = build_grid("circle", 2 * np.pi, 64)
    k = np.stack([a * np.cos(g.x), b * np.sin(g.x)], axis=1)
    shift = c * np.cos(2 * g.x)
    base = beta_D(from_principal_curvatures(g, k)).values
    moved = beta_D(
        from_principal_curvatures(g, k + shift[:, None])
    ).values
    np.testing.assert_allclose(base, moved, atol=1e-12)
