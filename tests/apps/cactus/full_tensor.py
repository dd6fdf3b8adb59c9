"""Full (3, 3, ...) tensor forms of the Cactus kernels: test references.

The evolver stores every symmetric tensor packed, as (6, ...) fields.
These are the full-layout forms it replaced, in which gamma_ij and K_ij
are (3, 3, ...) arrays and every contraction is an ``einsum`` over both
halves of each symmetric pair.  The tests compare the packed kernels
with ``to_packed`` of these results, and a packed evolution with
:func:`evolve`.
"""

import numpy as np

from repro.apps.cactus.adm import lapse_rhs
from repro.apps.cactus.boundaries import apply_sommerfeld
from repro.apps.cactus.geometry import Curvature
from repro.apps.cactus.mol import icn_step
from repro.apps.cactus.stencils import (
    deriv1,
    deriv_mixed,
    extend,
    fill_ghosts_periodic,
    ghost_for,
    grad,
    interior,
    kreiss_oliger,
)
from repro.apps.cactus.tensors import to_packed


def packed_christoffel(full):
    """(3, 6, ...) upper-triangle slots of a full (3, 3, 3, ...) field."""
    return np.stack([to_packed(full[k]) for k in range(3)])


def sym_det(g):
    return (
        g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
        - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
        + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))


def sym_inverse(g):
    inv = np.empty_like(g)
    inv[0, 0] = g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
    inv[0, 1] = g[0, 2] * g[2, 1] - g[0, 1] * g[2, 2]
    inv[0, 2] = g[0, 1] * g[1, 2] - g[0, 2] * g[1, 1]
    inv[1, 1] = g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]
    inv[1, 2] = g[0, 2] * g[1, 0] - g[0, 0] * g[1, 2]
    inv[2, 2] = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    inv[1, 0] = inv[0, 1]
    inv[2, 0] = inv[0, 2]
    inv[2, 1] = inv[1, 2]
    return inv / sym_det(g)


def trace(t, g_inv):
    return np.einsum("ij...,ij...->...", g_inv, t)


def symmetrize(t):
    return 0.5 * (t + np.swapaxes(t, 0, 1))


def hessian(f, spacing, order=2):
    """All nine second derivatives (3, 3, ...), mixed ones mirrored."""
    out = np.empty((3, 3, *(n - order for n in f.shape)))
    for a in range(3):
        for b in range(a, 3):
            out[a, b] = out[b, a] = deriv_mixed(
                f, a, b, spacing[a], spacing[b], order)
    return out


def curvature(gamma_ext, spacing, order=2):
    """Christoffels (3, 3, 3, ...) and symmetrized Ricci (3, 3, ...),
    contracting before differentiating as the evolver does."""
    s = order // 2
    dg = grad(gamma_ext, spacing, order)
    g1 = interior(gamma_ext, s)
    ginv = sym_inverse(g1)
    d_i_glj = dg.swapaxes(0, 1)
    low = d_i_glj + d_i_glj.swapaxes(1, 2)
    low -= dg
    low *= 0.5
    gamma_sym = np.einsum("kl...,lij...->kij...", ginv, low)
    ricci = deriv1(gamma_sym[0], 0, spacing[0], order)
    for k in (1, 2):
        ricci += deriv1(gamma_sym[k], k, spacing[k], order)
    C = np.einsum("kkj...->j...", gamma_sym)
    ricci -= grad(C, spacing, order)
    Gi = interior(gamma_sym, s)
    ricci += np.einsum("l...,lij...->ij...", interior(C, s), Gi)
    ricci -= np.einsum("kil...,lkj...->ij...", Gi, Gi)
    return Curvature(gamma=g1, gamma_inv=ginv, christoffel=gamma_sym,
                     ricci=symmetrize(ricci), order=order)


def hamiltonian_constraint(geo, K_ext):
    """H = R + (tr K)^2 - K^i_j K^j_i."""
    ginv = geo.at_interior(geo.gamma_inv)
    K = interior(K_ext, 2 * geo.shrink)
    Kmix = np.einsum("ik...,kj...->ij...", ginv, K)
    R = trace(geo.ricci, ginv)
    return R + trace(K, ginv)**2 - np.einsum("ij...,ji...->...", Kmix,
                                             Kmix)


def momentum_constraint(geo, K_ext, spacing):
    """M_i = g^jk d_k K_ij - G^l_ki K_l^k - G^l K_il - d_i tr K."""
    s = geo.shrink
    K1 = interior(K_ext, s)
    dtrK = grad(trace(K1, geo.gamma_inv), spacing, geo.order)
    dK = grad(K1, spacing, geo.order)
    ginv = geo.at_interior(geo.gamma_inv)
    G = geo.at_interior(geo.christoffel)
    K = interior(K1, s)
    K_mixed = np.einsum("kj...,lj...->lk...", ginv, K)
    G_trace = np.einsum("jk...,ljk...->l...", ginv, G)
    M = np.einsum("jk...,kij...->i...", ginv, dK)
    M -= np.einsum("lki...,lk...->i...", G, K_mixed)
    M -= np.einsum("l...,il...->i...", G_trace, K)
    M -= dtrK
    return M


def adm_rhs(gamma_ext, K_ext, alpha_ext, spacing, gauge="harmonic",
            order=2):
    geo = curvature(gamma_ext, spacing, order)
    s = geo.shrink
    ginv = geo.at_interior(geo.gamma_inv)
    G = geo.at_interior(geo.christoffel)
    K = interior(K_ext, 2 * s)
    alpha = interior(alpha_ext, 2 * s)
    dalpha = grad(alpha_ext, spacing, order)
    hess = interior(hessian(alpha_ext, spacing, order), s)
    dda = hess - np.einsum("kij...,k...->ij...", G, interior(dalpha, s))
    trK = trace(K, ginv)
    Kmix = np.einsum("kl...,lj...->kj...", ginv, K)
    KK = np.einsum("ik...,kj...->ij...", K, Kmix)
    dt_gamma = -2.0 * alpha * K
    dt_K = -dda + alpha * (geo.ricci + trK * K - 2.0 * KK)
    return dt_gamma, dt_K, lapse_rhs(gauge, alpha, trK)


def _extrapolate(ext, g):
    """Copy the outermost interior plane outward (radiative ghosts)."""
    for ax in range(3):
        n = ext.shape[ax - 3] - 2 * g

        def plane(i):
            sl = [slice(None)] * 3
            sl[ax] = slice(i, i + 1)
            return (Ellipsis, *sl)

        for k in range(g):
            ext[plane(k)] = ext[plane(g)]
            ext[plane(n + g + k)] = ext[plane(n + g - 1)]


def rhs(state, spacing, *, gauge="harmonic", order=2,
        boundary="periodic", dissipation=0.0):
    """The evolver's right-hand side on full tensors: ADM, Kreiss-Oliger
    dissipation and the Sommerfeld faces, each component of a symmetric
    pair computed and then the upper triangle mirrored."""
    ghost = ghost_for(order)
    exts = []
    for f in state:
        e = extend(f, ghost)
        if boundary == "periodic":
            fill_ghosts_periodic(e, ghost)
        else:
            _extrapolate(e, ghost)
        exts.append(e)
    dt = list(adm_rhs(*exts, spacing, gauge, order))
    if dissipation > 0.0:
        dt = [d + kreiss_oliger(e, spacing, dissipation, ghost=ghost)
              for d, e in zip(dt, exts)]
    if boundary == "radiative":
        gamma, K, alpha = state
        shape = alpha.shape
        for i in range(3):
            for j in range(i, 3):
                apply_sommerfeld(gamma[i, j], dt[0][i, j],
                                 1.0 if i == j else 0.0, shape, spacing)
                apply_sommerfeld(K[i, j], dt[1][i, j], 0.0, shape,
                                 spacing)
                dt[0][j, i] = dt[0][i, j]
                dt[1][j, i] = dt[1][i, j]
        apply_sommerfeld(alpha, dt[2], 1.0, shape, spacing)
    return tuple(dt)


def evolve(gamma, K, alpha, nsteps, spacing, dt, **options):
    """``nsteps`` ICN steps of the full-tensor evolution."""
    state = (gamma, K, alpha)
    for _ in range(nsteps):
        state = icn_step(state, lambda s: rhs(s, spacing, **options), dt)
    return state
