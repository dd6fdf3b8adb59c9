"""Fused stencils vs the naive reference forms (stencils_ref).

The fused kernels preserve the naive accumulation order, so agreement is
bitwise; the tests still phrase the bar as the ISSUE's rtol <= 1e-12 and
additionally assert exact equality where it holds by construction.
"""

import numpy as np
import pytest

from repro.apps.cactus import stencils as st
from repro.apps.cactus import stencils_ref as ref


@pytest.fixture
def field():
    rng = np.random.default_rng(11)
    return rng.normal(size=(14, 12, 13))


@pytest.fixture
def multifield():
    rng = np.random.default_rng(12)
    return rng.normal(size=(2, 3, 11, 12, 10))


SPACING = (0.1, 0.23, 0.31)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("ax", [0, 1, 2])
def test_deriv1_matches_reference(field, order, ax):
    got = st.deriv1(field, ax, SPACING[ax], order)
    want = ref.deriv1_ref(field, ax, SPACING[ax], order)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("ax", [0, 1, 2])
def test_deriv2_matches_reference(field, order, ax):
    got = st.deriv2(field, ax, SPACING[ax], order)
    want = ref.deriv2_ref(field, ax, SPACING[ax], order)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 2), (2, 0), (1, 1)])
def test_deriv_mixed_matches_reference(field, order, axes):
    a, b = axes
    got = st.deriv_mixed(field, a, b, SPACING[a], SPACING[b], order)
    want = ref.deriv_mixed_ref(field, a, b, SPACING[a], SPACING[b], order)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("order", [2, 4])
def test_grad_and_hessian_match_reference(field, order):
    np.testing.assert_array_equal(st.grad(field, SPACING, order),
                                  ref.grad_ref(field, SPACING, order))
    np.testing.assert_array_equal(st.hessian(field, SPACING, order),
                                  ref.hessian_ref(field, SPACING, order))


def test_multicomponent_fields_match_reference(multifield):
    np.testing.assert_array_equal(
        st.grad(multifield, SPACING), ref.grad_ref(multifield, SPACING))
    np.testing.assert_array_equal(
        st.kreiss_oliger(multifield, SPACING, 0.05),
        ref.kreiss_oliger_ref(multifield, SPACING, 0.05))


@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.5])
def test_kreiss_oliger_matches_reference(field, sigma):
    got = st.kreiss_oliger(field, SPACING, sigma)
    want = ref.kreiss_oliger_ref(field, SPACING, sigma)
    np.testing.assert_array_equal(got, want)


def test_out_parameter_reuse_gives_same_answer(field):
    """Preallocated outputs (the solver's usage) change nothing."""
    g_out = np.empty((3, 12, 10, 11))
    h_out = np.empty((6, 12, 10, 11))
    k_out = np.empty((10, 8, 9))
    for _ in range(2):  # second pass exercises dirty-buffer reuse
        st.grad(field, SPACING, out=g_out)
        st.hessian(field, SPACING, out=h_out)
        st.kreiss_oliger(field, SPACING, 0.1, out=k_out)
    np.testing.assert_array_equal(g_out, ref.grad_ref(field, SPACING))
    np.testing.assert_array_equal(h_out, ref.hessian_ref(field, SPACING))
    np.testing.assert_array_equal(
        k_out, ref.kreiss_oliger_ref(field, SPACING, 0.1))


def test_fused_within_issue_tolerance(field):
    """The formal ISSUE bar (rtol <= 1e-12), stated explicitly."""
    got = st.hessian(field, SPACING, 4)
    want = ref.hessian_ref(field, SPACING, 4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
