"""Tensor algebra and finite-difference stencils."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cactus.stencils import (
    GHOST,
    deriv1,
    deriv2,
    deriv_mixed,
    extend,
    fill_ghosts_periodic,
    ghost_for,
    grad,
    hessian,
    interior,
)
from repro.apps.cactus.tensors import (
    SLOT,
    SYM_INDEX,
    identity_metric,
    mixed,
    sym_det,
    sym_inverse,
    to_full,
    to_packed,
    trace,
)
from tests.apps.cactus import full_tensor


def random_spd(shape=(4, 4, 4), seed=0):
    """Random symmetric positive-definite metric field (full layout)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3, *shape)) * 0.2
    g = identity_metric(shape) + 0.5 * (a + np.swapaxes(a, 0, 1))
    # Make safely positive definite.
    for i in range(3):
        g[i, i] += 1.0
    return g


class TestTensors:
    def test_pack_unpack_roundtrip(self):
        g = random_spd()
        np.testing.assert_array_equal(to_full(to_packed(g)), g)

    def test_sym_index_order(self):
        assert SYM_INDEX == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        for p, (i, j) in enumerate(SYM_INDEX):
            assert SLOT[i, j] == SLOT[j, i] == p

    def test_identity_det_inverse(self):
        g = to_packed(identity_metric((3, 3, 3)))
        np.testing.assert_allclose(sym_det(g), 1.0)
        np.testing.assert_allclose(sym_inverse(g), g)

    def test_inverse_against_numpy(self):
        g = random_spd(seed=3)
        inv = to_full(sym_inverse(to_packed(g)))
        gm = np.moveaxis(g, (0, 1), (-2, -1))
        expect = np.moveaxis(np.linalg.inv(gm), (-2, -1), (0, 1))
        np.testing.assert_allclose(inv, expect, atol=1e-12)

    def test_det_against_numpy(self):
        g = random_spd(seed=4)
        gm = np.moveaxis(g, (0, 1), (-2, -1))
        np.testing.assert_allclose(sym_det(to_packed(g)),
                                   np.linalg.det(gm), atol=1e-12)

    def test_packed_algebra_equals_full_layout(self):
        """Same products in the same order: the packed determinant and
        inverse equal the full-layout adjugate forms bit for bit."""
        g = random_spd(seed=5)
        assert np.array_equal(sym_det(to_packed(g)), full_tensor.sym_det(g))
        assert np.array_equal(sym_inverse(to_packed(g)),
                              to_packed(full_tensor.sym_inverse(g)))

    def test_trace(self):
        g = to_packed(identity_metric((2, 2, 2)))
        t = 2.0 * g
        np.testing.assert_allclose(trace(t, g), 6.0)

    def test_trace_counts_off_diagonals_twice(self):
        g, t = random_spd(seed=6), random_spd(seed=7)
        np.testing.assert_allclose(
            trace(to_packed(t), to_packed(g)), full_tensor.trace(t, g),
            rtol=1e-14)

    def test_mixed_raises_one_index(self):
        g, t = random_spd(seed=8), random_spd(seed=9)
        np.testing.assert_allclose(
            mixed(to_packed(g), to_packed(t)),
            np.einsum("ik...,kj...->ij...", g, t), rtol=1e-14)

    def test_singular_metric_rejected(self):
        g = np.zeros((6, 2, 2, 2))
        with pytest.raises(ValueError, match="singular"):
            sym_inverse(g)

    def test_layout_checks(self):
        with pytest.raises(ValueError, match="leading dim 6"):
            to_full(np.zeros((3, 3, 2, 2, 2)))
        with pytest.raises(ValueError, match="leading dims"):
            to_packed(np.zeros((6, 2, 2, 2)))

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15)
    def test_inverse_property(self, seed):
        g = to_packed(random_spd(shape=(2, 2, 2), seed=seed))
        inv = sym_inverse(g)
        prod = np.einsum("ik...,kj...->ij...", to_full(g), to_full(inv))
        np.testing.assert_allclose(prod, identity_metric((2, 2, 2)),
                                   atol=1e-10)


class TestStencils:
    def setup_method(self):
        n = 12
        self.n = n
        self.h = 2 * np.pi / n
        x = np.arange(n) * self.h
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        self.f = np.sin(xx) * np.cos(yy) + 0.3 * np.sin(zz)
        self.xx, self.yy, self.zz = xx, yy, zz

    def _ext(self, f):
        e = extend(f, GHOST)
        fill_ghosts_periodic(e, GHOST)
        return e

    def test_extend_interior_roundtrip(self):
        e = extend(self.f)
        np.testing.assert_array_equal(interior(e, GHOST), self.f)

    def test_periodic_ghost_fill(self):
        e = self._ext(self.f)
        np.testing.assert_array_equal(e[GHOST - 1, GHOST:-GHOST,
                                        GHOST:-GHOST],
                                      self.f[-1])
        np.testing.assert_array_equal(e[-1, GHOST:-GHOST, GHOST:-GHOST],
                                      self.f[GHOST - 1])

    def test_deriv1_accuracy(self):
        e = self._ext(self.f)
        d = interior(deriv1(e, 0, self.h), 1)
        exact = np.cos(self.xx) * np.cos(self.yy)
        assert np.abs(d - exact).max() < 0.5 * self.h**2 * 4

    def test_deriv2_accuracy(self):
        e = self._ext(self.f)
        d = interior(deriv2(e, 0, self.h), 1)
        exact = -np.sin(self.xx) * np.cos(self.yy)
        assert np.abs(d - exact).max() < self.h**2

    def test_mixed_derivative(self):
        e = self._ext(self.f)
        d = interior(deriv_mixed(e, 0, 1, self.h, self.h), 1)
        exact = -np.cos(self.xx) * np.sin(self.yy)
        assert np.abs(d - exact).max() < self.h**2

    def test_mixed_same_axis_is_second(self):
        e = self._ext(self.f)
        np.testing.assert_array_equal(
            deriv_mixed(e, 1, 1, self.h, self.h), deriv2(e, 1, self.h))

    def test_grad_stacks_derivatives(self):
        e = self._ext(self.f)
        g = grad(e, (self.h,) * 3)
        assert g.shape[0] == 3
        np.testing.assert_array_equal(g[2], deriv1(e, 2, self.h))

    def test_hessian_symmetric(self):
        """One packed slot per symmetric pair (xx, xy, xz, yy, yz, zz)."""
        e = self._ext(self.f)
        h = hessian(e, (self.h,) * 3)
        assert h.shape[0] == 6
        for p, (a, b) in enumerate(SYM_INDEX):
            np.testing.assert_array_equal(
                h[p], deriv_mixed(e, a, b, self.h, self.h))
        full = to_full(h)
        np.testing.assert_array_equal(full[0, 1], full[1, 0])

    def test_convergence_order_two(self):
        errs = []
        for n in (16, 32):
            h = 2 * np.pi / n
            x = np.arange(n) * h
            xx = np.meshgrid(x, x, x, indexing="ij")[0]
            f = np.sin(xx)
            e = extend(f, GHOST)
            fill_ghosts_periodic(e)
            d = interior(deriv1(e, 0, h), 1)
            errs.append(np.abs(d - np.cos(xx)).max())
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_too_small_interior_rejected(self):
        e = np.zeros((5, 5, 5))  # interior 1 < ghost 2
        with pytest.raises(ValueError, match="smaller than ghost"):
            fill_ghosts_periodic(e, GHOST)


class TestFourthOrder:
    def _ext(self, f, ghost):
        e = extend(f, ghost)
        fill_ghosts_periodic(e, ghost)
        return e

    def _field(self, n):
        h = 2 * np.pi / n
        x = np.arange(n) * h
        xx, yy, _ = np.meshgrid(x, x, x, indexing="ij")
        return np.sin(xx) * np.cos(yy), xx, yy, h

    def test_ghost_for(self):
        assert ghost_for(2) == 2
        assert ghost_for(4) == 4
        with pytest.raises(ValueError):
            ghost_for(6)

    def test_fourth_order_beats_second(self):
        f, xx, yy, h = self._field(24)
        exact = np.cos(xx) * np.cos(yy)
        e2 = self._ext(f, 2)
        e4 = self._ext(f, 4)
        err2 = np.abs(interior(deriv1(e2, 0, h, 2), 1) - exact).max()
        err4 = np.abs(interior(deriv1(e4, 0, h, 4), 2) - exact).max()
        assert err4 < err2 / 20

    def test_fourth_order_convergence_rate(self):
        errs = []
        for n in (16, 32):
            f, xx, yy, h = self._field(n)
            e = self._ext(f, 4)
            d = interior(deriv2(e, 0, h, 4), 2)
            errs.append(np.abs(d + np.sin(xx) * np.cos(yy)).max())
        assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.3)

    def test_mixed_fourth_order(self):
        f, xx, yy, h = self._field(24)
        e = self._ext(f, 4)
        d = interior(deriv_mixed(e, 0, 1, h, h, 4), 2)
        exact = -np.cos(xx) * np.sin(yy)
        assert np.abs(d - exact).max() < 5e-4

    def test_hessian_order4_symmetric(self):
        f, *_ , h = self._field(16)
        e = self._ext(f, 4)
        hes = to_full(hessian(e, (h, h, h), 4))
        np.testing.assert_array_equal(hes[0, 2], hes[2, 0])
        np.testing.assert_array_equal(
            hes[0, 2], deriv_mixed(e, 0, 2, h, h, 4))

    def test_unknown_order_rejected(self):
        f, *_, h = self._field(16)
        e = self._ext(f, 2)
        with pytest.raises(ValueError):
            deriv1(e, 0, h, order=3)
