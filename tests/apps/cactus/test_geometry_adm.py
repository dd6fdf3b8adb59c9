"""Curvature computation and the ADM right-hand side (packed fields)."""

import numpy as np
import pytest

from repro.apps.cactus.adm import adm_rhs, lapse_rhs
from repro.apps.cactus.geometry import (
    curvature,
    hamiltonian_constraint,
    momentum_constraint,
    ricci_scalar,
)
from repro.apps.cactus.initial import gauge_wave, minkowski
from repro.apps.cactus.stencils import (
    GHOST,
    extend,
    fill_ghosts_periodic,
    ghost_for,
    grad,
    interior,
)
from repro.apps.cactus.tensors import (
    SLOT,
    identity_metric,
    to_packed,
)
from tests.apps.cactus import full_tensor
from tests.apps.cactus.full_tensor import (
    packed_christoffel,
    sym_inverse,
    symmetrize,
)


def extended(field, ghost=GHOST):
    """Ghost-extended copy of a scalar or packed field (periodic)."""
    e = extend(field, ghost)
    fill_ghosts_periodic(e, ghost)
    return e


def packed(field, ghost=GHOST):
    """Pack a full (3, 3, ...) tensor and ghost-extend it."""
    return extended(to_packed(field), ghost)


def _curvature_reference(gamma_ext, spacing, order):
    """The textbook form: three einsums over d_k g_ij for the
    Christoffels, then all 81 components d_m Gamma^k_ij and their
    traces for Ricci.  Returns (christoffel, ricci)."""
    s = order // 2
    dg = grad(gamma_ext, spacing, order)
    ginv = sym_inverse(interior(gamma_ext, s))
    gamma_sym = np.einsum(
        "kl...,ilj...->kij...", ginv, dg) / 2.0 \
        + np.einsum("kl...,jli...->kij...", ginv, dg) / 2.0 \
        - np.einsum("kl...,lij...->kij...", ginv, dg) / 2.0
    dGamma = grad(gamma_sym, spacing, order)
    Gi = interior(gamma_sym, s)
    d_k_G_kij = np.einsum("kkij...->ij...", dGamma)
    d_i_G_kkj = np.einsum("ikkj...->ij...", dGamma)
    GG1 = np.einsum("kkl...,lij...->ij...", Gi, Gi)
    GG2 = np.einsum("kil...,lkj...->ij...", Gi, Gi)
    return gamma_sym, symmetrize(d_k_G_kij - d_i_G_kkj + GG1 - GG2)


def _momentum_reference(geo, K_ext, spacing):
    """The textbook form: all 27 components of the covariant derivative
    D_k K_ij, then the contraction g^jk D_k K_ij - d_i tr K."""
    s = geo.shrink
    dK = grad(K_ext, spacing, geo.order)
    G = geo.christoffel
    K1 = interior(K_ext, s)
    DK = dK \
        - np.einsum("lki...,lj...->kij...", G, K1) \
        - np.einsum("lkj...,il...->kij...", G, K1)
    dtrK = grad(np.einsum("ij...,ij...->...", geo.gamma_inv, K1), spacing,
                geo.order)
    ginv = geo.at_interior(geo.gamma_inv)
    return np.einsum("jk...,kji...->i...", ginv, interior(DK, s)) - dtrK


def _random_metric(shape, seed, amplitude=0.05):
    """delta_ij plus seeded noise, bitwise symmetric in (i, j)."""
    a = amplitude * np.random.default_rng(seed).standard_normal(
        (3, 3, *shape))
    return identity_metric(shape) + (a + np.swapaxes(a, 0, 1))


class TestCurvature:
    def test_flat_metric_curvature_free(self):
        g = identity_metric((8, 8, 8))
        geo = curvature(packed(g), (0.1, 0.1, 0.1))
        np.testing.assert_allclose(geo.christoffel, 0.0, atol=1e-14)
        np.testing.assert_allclose(geo.ricci, 0.0, atol=1e-14)
        np.testing.assert_allclose(ricci_scalar(geo), 0.0, atol=1e-14)

    def test_conformally_flat_ricci(self):
        """For gamma = psi^4 delta with small perturbation, compare the
        Ricci scalar against the linearized formula R = -8 lap(psi)."""
        n = 16
        h = 2 * np.pi / n
        x = np.arange(n) * h
        xx, yy, _ = np.meshgrid(x, x, x, indexing="ij")
        eps = 1e-5
        psi = 1.0 + eps * np.sin(xx) * np.cos(yy)
        lap = -2.0 * eps * np.sin(xx) * np.cos(yy)
        g = identity_metric((n, n, n)) * psi**4
        geo = curvature(packed(g), (h, h, h))
        R = ricci_scalar(geo)
        # O(h^2) truncation of the FD Laplacian at n=16 allows ~5% error.
        np.testing.assert_allclose(R, -8.0 * lap, atol=eps * 1.5)

    def test_gauge_wave_spatial_ricci(self):
        """gamma = diag(H(x),1,1) is a flat 3-metric: Ricci = 0."""
        g, _, _ = gauge_wave((32, 4, 4), 1.0 / 32, amplitude=0.1)
        geo = curvature(packed(g), (1.0 / 32, 1.0, 1.0))
        assert np.abs(geo.ricci).max() < 1e-10

    def test_christoffel_symmetry(self):
        """Gamma^k_(ij) is stored once per symmetric pair, (3, 6, ...),
        and expands to the full layout's symmetric (3, 3, 3, ...)."""
        g, _, _ = gauge_wave((16, 4, 4), 1.0 / 16, amplitude=0.2)
        spacing = (1.0 / 16, 1.0, 1.0)
        geo = curvature(packed(g), spacing)
        assert geo.christoffel.shape == (3, 6, 18, 6, 6)
        ref = full_tensor.curvature(extended(g), spacing).christoffel
        assert np.array_equal(ref, np.swapaxes(ref, 1, 2))
        assert np.array_equal(geo.christoffel[:, SLOT], ref)

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_textbook_reference(self, order):
        """Contracting before differentiating changes only rounding."""
        g = _random_metric((10, 9, 8), seed=17 + order)
        g_ext = extended(g, ghost_for(order))
        spacing = (0.1, 0.12, 0.09)
        geo = curvature(extended(to_packed(g), ghost_for(order)), spacing,
                        order)
        ref_G, ref_R = _curvature_reference(g_ext, spacing, order)
        for got, ref in ((geo.christoffel, packed_christoffel(ref_G)),
                         (geo.ricci, to_packed(ref_R))):
            assert got.shape == ref.shape
            np.testing.assert_allclose(
                got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_non_tensor_input_rejected(self):
        with pytest.raises(ValueError, match="packed"):
            curvature(np.zeros((3, 3, 8, 8, 8)), (0.1,) * 3)


class TestConstraints:
    def test_flat_space_constraints_zero(self):
        g, K, _ = minkowski((8, 8, 8))
        geo = curvature(packed(g), (0.1,) * 3)
        H = hamiltonian_constraint(geo, packed(K))
        M = momentum_constraint(geo, packed(K), (0.1,) * 3)
        np.testing.assert_allclose(H, 0.0, atol=1e-13)
        np.testing.assert_allclose(M, 0.0, atol=1e-13)

    def test_gauge_wave_satisfies_constraints(self):
        """The gauge wave is vacuum.  H vanishes identically even
        discretely (the diagonal single-variable metric's Ricci cancels
        term by term and trK^2 == K_ij K^ij); M vanishes to truncation
        and converges at second order."""
        errs = []
        for n in (32, 64):
            dx = 1.0 / n
            g, K, _ = gauge_wave((n, 4, 4), dx, amplitude=0.1)
            geo = curvature(packed(g), (dx, 1.0, 1.0))
            H = hamiltonian_constraint(geo, packed(K))
            M = momentum_constraint(geo, packed(K), (dx, 1.0, 1.0))
            assert np.abs(H).max() < 1e-10
            errs.append(np.abs(M).max())
        assert errs[1] < errs[0]
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.4)

    def test_ricci_scalar_converges(self):
        """FD Ricci of a conformally-flat metric converges at order 2."""
        errs = []
        for n in (16, 32):
            h = 2 * np.pi / n
            x = np.arange(n) * h
            xx, yy, _ = np.meshgrid(x, x, x, indexing="ij")
            eps = 1e-5
            psi = 1.0 + eps * np.sin(xx) * np.cos(yy)
            lap = -2.0 * eps * np.sin(xx) * np.cos(yy)
            g = identity_metric((n, n, n)) * psi**4
            geo = curvature(packed(g), (h, h, h))
            errs.append(np.abs(ricci_scalar(geo) + 8.0 * lap).max())
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.4)

    @pytest.mark.parametrize("order", [2, 4])
    def test_momentum_matches_textbook_reference(self, order):
        """Contracting before building D_k K_ij changes only rounding."""
        spacing = (0.1, 0.12, 0.09)
        ghost = ghost_for(order)
        g = _random_metric((10, 9, 8), seed=order)
        geo = curvature(packed(g, ghost), spacing, order)
        K = _random_metric((10, 9, 8), seed=40 + order, amplitude=0.3) \
            - identity_metric((10, 9, 8))
        got = momentum_constraint(geo, packed(K, ghost), spacing)
        ref = _momentum_reference(
            full_tensor.curvature(extended(g, ghost), spacing, order),
            extended(K, ghost), spacing)
        assert got.shape == ref.shape == (3, 10, 9, 8)
        assert np.abs(ref).max() > 1.0
        np.testing.assert_allclose(
            got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_nonzero_K_violates_hamiltonian(self):
        g, K, _ = minkowski((8, 8, 8))
        # Two distinct eigenvalues: trK^2 != K_ij K^ij, so H != 0.
        K[0, 0] += 0.1
        K[1, 1] += 0.2
        geo = curvature(packed(g), (0.1,) * 3)
        H = hamiltonian_constraint(geo, packed(K))
        assert np.abs(H).max() > 1e-3


class TestADMRHS:
    def test_minkowski_is_stationary(self):
        g, K, a = minkowski((8, 8, 8))
        dtg, dtK, dta = adm_rhs(packed(g), packed(K), extended(a),
                                (0.1,) * 3)
        np.testing.assert_allclose(dtg, 0.0, atol=1e-14)
        np.testing.assert_allclose(dtK, 0.0, atol=1e-14)
        np.testing.assert_allclose(dta, 0.0, atol=1e-14)

    def test_dt_gamma_is_minus_2_alpha_K(self):
        g, K, a = minkowski((8, 8, 8))
        K[0, 1] = K[1, 0] = 0.05
        dtg, _, _ = adm_rhs(packed(g), packed(K), extended(a),
                            (0.1,) * 3)
        np.testing.assert_allclose(dtg[SLOT[0, 1]], -0.1, atol=1e-12)

    def test_gauge_wave_rhs_matches_exact_time_derivative(self):
        """Compare the ADM RHS against the analytic dt of the exact
        gauge-wave solution (finite-difference truncation only)."""
        n, dx = 64, 1.0 / 64
        shape = (n, 4, 4)
        g0, K0, a0 = gauge_wave(shape, dx, amplitude=0.05, t=0.0)
        dtg, dtK, dta = adm_rhs(packed(g0), packed(K0), extended(a0),
                                (dx, 1.0, 1.0), gauge="harmonic")
        eps = 1e-6
        gp, Kp, ap = gauge_wave(shape, dx, amplitude=0.05, t=eps)
        gm, Km, am = gauge_wave(shape, dx, amplitude=0.05, t=-eps)
        np.testing.assert_allclose(dtg, to_packed(gp - gm) / (2 * eps),
                                   atol=5e-3)
        np.testing.assert_allclose(dtK, to_packed(Kp - Km) / (2 * eps),
                                   atol=5e-3)
        np.testing.assert_allclose(dta, (ap - am) / (2 * eps), atol=5e-3)

    def test_lapse_gauges(self):
        a = np.full((2, 2, 2), 2.0)
        trK = np.full((2, 2, 2), 0.5)
        np.testing.assert_allclose(lapse_rhs("geodesic", a, trK), 0.0)
        np.testing.assert_allclose(lapse_rhs("harmonic", a, trK), -2.0)
        np.testing.assert_allclose(lapse_rhs("1+log", a, trK), -2.0)
        with pytest.raises(ValueError, match="unknown gauge"):
            lapse_rhs("maximal", a, trK)
