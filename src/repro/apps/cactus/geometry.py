"""Differential geometry of the 3-metric: Christoffels, Ricci, constraints.

Every symmetric tensor is packed (:mod:`tensors`): the metric, its
inverse and Ricci are (6, ...) fields, the Christoffels Gamma^k_(ij) a
(3, 6, ...) field, so each kernel differentiates and multiplies the 18
independent components where a full layout would handle 27.
Everything is vectorized over the grid, and every index contraction that
can precede a derivative does.  With finite-difference order ``2s``,
d_k g_ij, Gamma_lij, Gamma^k_ij = g^kl Gamma_lij (one raise) and the trace
C_j = Gamma^k_kj are valid on the ghost-s region; Ricci, built from
d_k Gamma^k_ij and d_(i C_j) instead of all d_m Gamma^k_ij, on the true
interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stencils import deriv1, grad, interior
from .tensors import ROWS, SLOT, SYM_INDEX, mixed, sym_inverse, to_full, \
    trace


class Workspace:
    """Scratch arrays of the ADM kernels for one ghost-extended grid.

    The kernels write their large temporaries (derivatives, Christoffels,
    the Ricci terms, the lapse Hessian, the K products) into these named
    arrays, all carved from one float64 block.  A solver keeps one for
    its lifetime, so its right-hand sides reuse a working set that is
    allocated, and paged in, once; a kernel called without one builds
    its own.  Arrays from one call are overwritten by the next.
    """

    def __init__(self, grid_ext: tuple[int, ...], order: int = 2):
        s = order // 2
        ring = tuple(n - 2 * s for n in grid_ext)      # ghost-s region
        core = tuple(n - 4 * s for n in grid_ext)      # true interior
        shapes = {
            "dg": (3, 6, *ring), "low": (3, 6, *ring),
            "christoffel": (3, 6, *ring), "ginv_full": (3, 3, *ring),
            "C": (3, *ring), "dalpha": (3, *ring), "hess": (6, *ring),
            "ricci": (6, *core), "term": (6, *core), "dC": (3, 3, *core),
            "Gf": (3, 3, 3, *core), "Kfull": (3, 3, *core),
            "Kmix": (3, 3, *core), "KK": (6, *core), "dda": (6, *core),
        }
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        block = np.empty(sum(sizes))
        self._arrays = {}
        at = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self._arrays[name] = block[at:at + size].reshape(shape)
            at += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]


@dataclass
class Curvature:
    """Geometric quantities derived from a ghost-extended 3-metric.

    With finite-difference order ``2s``: ``gamma``, ``gamma_inv`` and
    ``christoffel`` are valid on the ghost-s region and ``ricci`` on the
    true interior.  ``at_interior`` shrinks a ghost-s field to the
    interior for algebra with Ricci.
    """

    gamma: np.ndarray           # (6, n+2s...)
    gamma_inv: np.ndarray       # (6, n+2s...)
    christoffel: np.ndarray     # (3, 6, n+2s...)  [k, (ij)] = Gamma^k_ij
    ricci: np.ndarray           # (6, n...)
    order: int = 2

    @property
    def shrink(self) -> int:
        return self.order // 2

    def at_interior(self, field: np.ndarray) -> np.ndarray:
        """Shrink a ghost-s-valid field to the interior region."""
        return interior(field, self.shrink)


def curvature(gamma_ext: np.ndarray,
              spacing: tuple[float, float, float],
              order: int = 2, work: Workspace | None = None) -> Curvature:
    """Compute Christoffels and Ricci from a ghost-extended metric.

    With ``work``, the Christoffels and Ricci are arrays of that
    workspace (valid until its next use).
    """
    if gamma_ext.ndim != 4 or gamma_ext.shape[0] != 6:
        raise ValueError("gamma must be a packed (6,nx,ny,nz) field")
    w = work if work is not None else Workspace(gamma_ext.shape[1:], order)
    s = order // 2
    # d_k gamma_(ij), valid on the ghost-s region.
    dg = grad(gamma_ext, spacing, order, out=w["dg"])
    g1 = interior(gamma_ext, s)
    ginv = sym_inverse(g1)
    # Gamma_l(ij) = 1/2 (d_i g_lj + d_j g_li - d_l g_ij), then one raise:
    # Gamma^k_(ij) = g^kl Gamma_l(ij).
    low = w["low"]
    for lo, row in zip(low, SLOT):
        for p, (i, j) in enumerate(SYM_INDEX):
            np.add(dg[i, row[j]], dg[j, row[i]], out=lo[p])
    low -= dg
    low *= 0.5
    ginv_full = np.take(ginv, SLOT, axis=0, out=w["ginv_full"],
                        mode="clip")
    gamma_sym = np.einsum("kl...,lp...->kp...", ginv_full, low,
                          out=w["christoffel"])
    # R_ij = d_k G^k_ij - d_(i C_j) + C_l G^l_ij - G^k_il G^l_kj with
    # C_j = G^k_kj: contract first, then differentiate.
    ricci = deriv1(gamma_sym[0], 0, spacing[0], order, out=w["ricci"])
    term = w["term"]
    for k in (1, 2):
        ricci += deriv1(gamma_sym[k], k, spacing[k], order, out=term)
    C = np.add(gamma_sym[0, SLOT[0]], gamma_sym[1, SLOT[1]], out=w["C"])
    C += gamma_sym[2, SLOT[2]]
    dC = grad(C, spacing, order, out=w["dC"])   # [i, j] = d_i C_j
    for p, (i, j) in enumerate(SYM_INDEX):
        if i == j:
            ricci[p] -= dC[i, i]
        else:
            np.add(dC[i, j], dC[j, i], out=term[p])
            term[p] *= 0.5
            ricci[p] -= term[p]
    Gi = interior(gamma_sym, s)
    ricci += np.einsum("l...,lp...->p...", interior(C, s), Gi, out=term)
    Gf = np.take(Gi, SLOT, axis=1, out=w["Gf"], mode="clip")  # G^k_il
    for i, row in ROWS:
        ricci[row] -= np.einsum("kl...,lkj...->j...", Gf[:, i],
                                Gf[:, :, i:], out=term[row])
    return Curvature(gamma=g1, gamma_inv=ginv, christoffel=gamma_sym,
                     ricci=ricci, order=order)


def ricci_scalar(geo: Curvature) -> np.ndarray:
    """R = g^{ij} R_ij on the interior."""
    return trace(geo.ricci, geo.at_interior(geo.gamma_inv))


def hamiltonian_constraint(geo: Curvature, K_ext: np.ndarray
                           ) -> np.ndarray:
    """H = R + (tr K)^2 - K^i_j K^j_i, on the interior (vacuum: H = 0)."""
    Kmix = mixed(geo.at_interior(geo.gamma_inv),
                 interior(K_ext, 2 * geo.shrink))
    trK = Kmix[0, 0] + Kmix[1, 1] + Kmix[2, 2]
    KK = np.einsum("ij...,ji...->...", Kmix, Kmix)
    return ricci_scalar(geo) + trK**2 - KK


def momentum_constraint(geo: Curvature, K_ext: np.ndarray,
                        spacing: tuple[float, float, float]) -> np.ndarray:
    """M_i = D^j K_ij - D_i tr K, on the interior (vacuum: M = 0).

    Contracted before the covariant derivative is built:
    D^j K_ij = g^jk d_k K_ij - G^l_ki K_l^k - G^l K_il, with
    K_l^k = g^kj K_lj and G^l = g^jk G^l_jk.
    """
    s = geo.shrink
    K1 = interior(K_ext, s)                   # ghost-s region
    # tr K on the ghost-s region, then its gradient on the interior.
    dtrK = grad(trace(K1, geo.gamma_inv), spacing, geo.order)
    dK = grad(K1, spacing, geo.order)         # [k, (ij)] = d_k K_ij
    ginv = geo.at_interior(geo.gamma_inv)
    G = geo.at_interior(geo.christoffel)
    K = interior(K1, s)
    ginv_full = to_full(ginv)
    K_mixed = mixed(ginv, K)                  # [k, l] = K^k_l = K_l^k
    G_trace = np.stack([trace(G_l, ginv) for G_l in G])
    M = np.einsum("jk...,kij...->i...", ginv_full, dK[:, SLOT])
    M -= np.einsum("lki...,kl...->i...", G[:, SLOT], K_mixed)
    M -= np.einsum("l...,il...->i...", G_trace, to_full(K))
    M -= dtrK
    return M
