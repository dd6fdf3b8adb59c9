"""Differential geometry of the 3-metric: Christoffels, Ricci, constraints.

Everything is vectorized over the grid, and every index contraction that
can precede a derivative does.  With finite-difference order ``2s``,
d_k g_ij, Gamma_lij, Gamma^k_ij = g^kl Gamma_lij (one raise) and the trace
C_j = Gamma^k_kj are valid on the ghost-s region; Ricci, built from
d_k Gamma^k_ij and d_i C_j instead of all 81 d_m Gamma^k_ij, on the true
interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stencils import deriv1, grad, interior
from .tensors import sym_inverse, symmetrize, trace


@dataclass
class Curvature:
    """Geometric quantities derived from a ghost-extended 3-metric.

    With finite-difference order ``2s``: ``gamma``, ``gamma_inv`` and
    ``christoffel`` are valid on the ghost-s region and ``ricci`` on the
    true interior.  ``at_interior`` shrinks a ghost-s field to the
    interior for algebra with Ricci.
    """

    gamma: np.ndarray           # (3,3, n+2s...)
    gamma_inv: np.ndarray       # (3,3, n+2s...)
    christoffel: np.ndarray     # (3,3,3, n+2s...)  [k, i, j] = Gamma^k_ij
    ricci: np.ndarray           # (3,3, n...)
    order: int = 2

    @property
    def shrink(self) -> int:
        return self.order // 2

    def at_interior(self, field: np.ndarray) -> np.ndarray:
        """Shrink a ghost-s-valid field to the interior region."""
        return interior(field, self.shrink)


def curvature(gamma_ext: np.ndarray,
              spacing: tuple[float, float, float],
              order: int = 2) -> Curvature:
    """Compute Christoffels and Ricci from a ghost-extended metric."""
    if gamma_ext.shape[:2] != (3, 3):
        raise ValueError("gamma must be a full (3,3,...) field")
    s = order // 2
    # d_k gamma_ij, valid on the ghost-s region.
    dg = grad(gamma_ext, spacing, order)
    g1 = interior(gamma_ext, s)
    ginv = sym_inverse(g1)
    # Gamma_lij = 1/2 (d_i g_lj + d_j g_li - d_l g_ij), then one raise:
    # Gamma^k_ij = g^kl Gamma_lij.
    d_i_glj = dg.swapaxes(0, 1)
    low = d_i_glj + d_i_glj.swapaxes(1, 2)
    low -= dg
    low *= 0.5
    gamma_sym = np.einsum("kl...,lij...->kij...", ginv, low)
    # R_ij = d_k G^k_ij - d_i C_j + C_l G^l_ij - G^k_il G^l_kj with
    # C_j = G^k_kj: contract first, then differentiate.
    ricci = deriv1(gamma_sym[0], 0, spacing[0], order)
    term = np.empty_like(ricci)
    for k in (1, 2):
        ricci += deriv1(gamma_sym[k], k, spacing[k], order, out=term)
    C = np.einsum("kkj...->j...", gamma_sym)
    ricci -= grad(C, spacing, order)
    Gi = interior(gamma_sym, s)
    ricci += np.einsum("l...,lij...->ij...", interior(C, s), Gi)
    ricci -= np.einsum("kil...,lkj...->ij...", Gi, Gi)
    return Curvature(gamma=g1, gamma_inv=ginv, christoffel=gamma_sym,
                     ricci=symmetrize(ricci), order=order)


def ricci_scalar(geo: Curvature) -> np.ndarray:
    """R = g^{ij} R_ij on the interior."""
    return trace(geo.ricci, geo.at_interior(geo.gamma_inv))


def hamiltonian_constraint(geo: Curvature, K_ext: np.ndarray
                           ) -> np.ndarray:
    """H = R + (tr K)^2 - K_ij K^ij, on the interior (vacuum: H = 0)."""
    ginv = geo.at_interior(geo.gamma_inv)
    K = interior(K_ext, 2 * geo.shrink)
    trK = trace(K, ginv)
    Kup = np.einsum("ik...,jl...,kl...->ij...", ginv, ginv, K)
    KK = np.einsum("ij...,ij...->...", Kup, K)
    return ricci_scalar(geo) + trK**2 - KK


def momentum_constraint(geo: Curvature, K_ext: np.ndarray,
                        spacing: tuple[float, float, float]) -> np.ndarray:
    """M_i = D^j K_ij - D_i tr K, on the interior (vacuum: M = 0)."""
    s = geo.shrink
    dK = grad(K_ext, spacing, geo.order)      # [k,i,j] = d_k K_ij
    G = geo.christoffel                       # ghost-s region
    # Covariant derivative D_k K_ij = d_k K_ij - G^l_ki K_lj - G^l_kj K_il
    K1 = interior(K_ext, s)
    DK = dK \
        - np.einsum("lki...,lj...->kij...", G, K1) \
        - np.einsum("lkj...,il...->kij...", G, K1)
    ginv1 = geo.gamma_inv
    # tr K on the ghost-s region, then its gradient on the interior.
    trK1 = trace(K1, ginv1)
    dtrK = grad(trK1, spacing, geo.order)
    DKi = interior(DK, s)
    ginv = geo.at_interior(ginv1)
    MjKij = np.einsum("jk...,kji...->i...", ginv, DKi)
    return MjKij - dtrK
