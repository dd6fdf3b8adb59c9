"""Packed kernels against the full-tensor forms they replaced.

The evolver stores gamma_ij and K_ij as (6, ...) upper triangles.  Each
packed kernel must match ``to_packed`` of its full-layout reference
(:mod:`tests.apps.cactus.full_tensor`):

* bitwise on the diagonal gauge wave at order 2, where every
  off-diagonal term is an exact zero, so both layouts add the same
  non-zero terms in the same order;
* within 1e-12 of the reference's largest entry on seeded random
  symmetric data, where the layouts add the same terms in other orders.
"""

import numpy as np
import pytest

from repro.apps.cactus.adm import adm_rhs
from repro.apps.cactus.geometry import (
    curvature,
    hamiltonian_constraint,
    momentum_constraint,
)
from repro.apps.cactus.initial import gauge_wave
from repro.apps.cactus.parallel import run_parallel
from repro.apps.cactus.solver import CactusSolver
from repro.apps.cactus.stencils import extend, fill_ghosts_periodic, \
    ghost_for
from repro.apps.cactus.tensors import identity_metric, to_packed
from tests.apps.cactus import full_tensor

SPACING = (0.1, 0.12, 0.09)
SHAPE = (10, 9, 8)


def _ext(field, ghost):
    e = extend(field, ghost)
    fill_ghosts_periodic(e, ghost)
    return e


def _random_state(seed, shape=SHAPE):
    """Symmetric gamma near the identity, symmetric K, alpha near 1."""
    rng = np.random.default_rng(seed)
    a = 0.05 * rng.standard_normal((3, 3, *shape))
    b = 0.3 * rng.standard_normal((3, 3, *shape))
    return (identity_metric(shape) + (a + np.swapaxes(a, 0, 1)),
            b + np.swapaxes(b, 0, 1),
            1.0 + 0.05 * rng.standard_normal(shape))


def _gauge_state(shape=(16, 6, 5)):
    return gauge_wave(shape, SPACING[0], amplitude=0.1)


def _kernel_pairs(state, order, gauge):
    """(packed result, packed full-layout reference) for each kernel."""
    g, K, a = state
    ghost = ghost_for(order)
    full = [_ext(f, ghost) for f in state]
    packed = [_ext(to_packed(g), ghost), _ext(to_packed(K), ghost),
              full[2]]
    geo = curvature(packed[0], SPACING, order)
    ref = full_tensor.curvature(full[0], SPACING, order)
    pairs = {
        "gamma_inv": (geo.gamma_inv, to_packed(ref.gamma_inv)),
        "christoffel": (geo.christoffel,
                        full_tensor.packed_christoffel(ref.christoffel)),
        "ricci": (geo.ricci, to_packed(ref.ricci)),
        "hamiltonian": (hamiltonian_constraint(geo, packed[1]),
                        full_tensor.hamiltonian_constraint(ref, full[1])),
        "momentum": (momentum_constraint(geo, packed[1], SPACING),
                     full_tensor.momentum_constraint(ref, full[1],
                                                     SPACING)),
    }
    got = adm_rhs(*packed, SPACING, gauge, order=order)
    want = full_tensor.adm_rhs(*full, SPACING, gauge, order)
    pairs["dt_gamma"] = got[0], to_packed(want[0])
    pairs["dt_K"] = got[1], to_packed(want[1])
    pairs["dt_alpha"] = got[2], want[2]
    return pairs


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max(),
                               err_msg=what)


class TestKernels:
    @pytest.mark.parametrize("gauge", ["harmonic", "1+log"])
    def test_bitwise_on_gauge_wave(self, gauge):
        for name, (got, want) in _kernel_pairs(_gauge_state(), 2,
                                               gauge).items():
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_symmetric_data(self, order, seed):
        pairs = _kernel_pairs(_random_state(seed), order, "1+log")
        assert np.abs(pairs["ricci"][1]).max() > 1.0
        for name, (got, want) in pairs.items():
            _assert_close(got, want, name)

    def test_gauge_wave_order4(self):
        for name, (got, want) in _kernel_pairs(_gauge_state((16, 9, 9)),
                                               4, "harmonic").items():
            _assert_close(got, want, name)


class TestSolverRHS:
    """The whole right-hand side: ADM, Kreiss-Oliger dissipation and,
    on radiative boxes, the Sommerfeld faces and extrapolated ghosts."""

    CASES = [("periodic", 0.0), ("radiative", 0.3)]

    def _pair(self, state, order, boundary, dissipation):
        solver = CactusSolver(*state, spacing=SPACING, gauge="1+log",
                              boundary=boundary, dissipation=dissipation,
                              order=order)
        got = solver._rhs(solver.state())
        want = full_tensor.rhs(state, SPACING, gauge="1+log", order=order,
                               boundary=boundary, dissipation=dissipation)
        return zip(("dt_gamma", "dt_K", "dt_alpha"), got,
                   (to_packed(want[0]), to_packed(want[1]), want[2]))

    @pytest.mark.parametrize("boundary, dissipation", CASES)
    def test_bitwise_on_gauge_wave(self, boundary, dissipation):
        for name, got, want in self._pair(_gauge_state(), 2, boundary,
                                          dissipation):
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("boundary, dissipation", CASES)
    def test_random_symmetric_data(self, order, boundary, dissipation):
        for name, got, want in self._pair(_random_state(order), order,
                                          boundary, dissipation):
            _assert_close(got, want, name)


class TestEvolution:
    def test_gauge_wave_bitwise(self):
        """ICN on two ranks equals the full-layout serial evolution."""
        g, K, a = gauge_wave((16, 8, 8), 1 / 16, amplitude=0.05)
        got = run_parallel(g, K, a, nprocs=2, nsteps=3, spacing=1 / 16,
                           dt=0.2 / 16)
        want = full_tensor.evolve(g, K, a, 3, (1 / 16,) * 3, 0.2 / 16)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_random_symmetric_data(self):
        g, K, a = _random_state(9, (8, 8, 8))
        K *= 0.01
        got = run_parallel(g, K, a, nprocs=2, nsteps=2, spacing=0.1,
                           gauge="1+log")
        want = full_tensor.evolve(g, K, a, 2, (0.1,) * 3, 0.025,
                                  gauge="1+log")
        for x, y in zip(got, want):
            _assert_close(x, y, "state")
        # Packed state stays symmetric by construction.
        assert np.array_equal(got[1], np.swapaxes(got[1], 0, 1))


class TestAccessors:
    def test_full_views_are_read_only_copies(self):
        g, K, a = gauge_wave((8, 4, 4), 1 / 8, amplitude=0.05)
        s = CactusSolver(g, K, a, spacing=1 / 8)
        assert s.gamma_packed.shape == s.K_packed.shape == (6, 8, 4, 4)
        np.testing.assert_array_equal(s.gamma, g)
        np.testing.assert_array_equal(s.K, K)
        with pytest.raises(ValueError):
            s.gamma[0, 0] = 0.0
        s.gamma_packed[0] += 1.0
        np.testing.assert_array_equal(s.gamma[0, 0], g[0, 0] + 1.0)

    def test_full_tensors_required(self):
        g, K, a = gauge_wave((8, 4, 4), 1 / 8, amplitude=0.05)
        with pytest.raises(ValueError, match="full"):
            CactusSolver(to_packed(g), to_packed(K), a)
