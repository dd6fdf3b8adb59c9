"""The ADM 3+1 vacuum evolution equations (zero shift).

With lapse ``alpha`` and vanishing shift, the 12 evolution equations of
the ADM formalism (§5: "the equations are written as four constraint
equations and 12 evolution equations") are

    dt gamma_ij = -2 alpha K_ij
    dt K_ij     = -D_i D_j alpha
                  + alpha (R_ij + tr(K) K_ij - 2 K_ik K^k_j)

The "lapse function describes the time slicing between hypersurfaces";
three standard choices are provided:

* ``geodesic``  : dt alpha = 0
* ``harmonic``  : dt alpha = -alpha^2 tr K   (exact for the gauge wave)
* ``1+log``     : dt alpha = -2 alpha tr K   (the workhorse slicing)
"""

from __future__ import annotations

import numpy as np

from .geometry import Workspace, curvature
from .stencils import grad, hessian, interior
from .tensors import ROWS, SLOT

GAUGES = ("geodesic", "harmonic", "1+log")


def lapse_rhs(gauge: str, alpha: np.ndarray, trK: np.ndarray
              ) -> np.ndarray:
    if gauge == "geodesic":
        return np.zeros_like(alpha)
    if gauge == "harmonic":
        return -(alpha**2) * trK
    if gauge == "1+log":
        return -2.0 * alpha * trK
    raise ValueError(f"unknown gauge {gauge!r}; choose from {GAUGES}")


def adm_rhs(gamma_ext: np.ndarray, K_ext: np.ndarray,
            alpha_ext: np.ndarray,
            spacing: tuple[float, float, float], gauge: str = "harmonic",
            order: int = 2, work: Workspace | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior time derivatives (dt gamma, dt K, dt alpha).

    Inputs are ghost-extended packed (6, ...) tensor fields and the
    lapse (ghost width :func:`~repro.apps.cactus.stencils.ghost_for` of
    the chosen finite-difference ``order``); outputs are new arrays,
    packed the same way, on the interior only.  ``work`` holds the
    temporaries (see :class:`~repro.apps.cactus.geometry.Workspace`).
    """
    w = work if work is not None else Workspace(gamma_ext.shape[1:], order)
    geo = curvature(gamma_ext, spacing, order, w)
    s = geo.shrink
    G = geo.at_interior(geo.christoffel)
    K = interior(K_ext, 2 * s)
    alpha = interior(alpha_ext, 2 * s)

    # Covariant Hessian of the lapse: D_i D_j a = d_i d_j a - G^k_ij d_k a
    dalpha = grad(alpha_ext, spacing, order, out=w["dalpha"])
    hess = interior(hessian(alpha_ext, spacing, order, out=w["hess"]), s)
    dda = np.einsum("kp...,k...->p...", G, interior(dalpha, s),
                    out=w["dda"])
    np.subtract(hess, dda, out=dda)

    # K^k_j = g^kl K_lj (full: a mixed tensor is not symmetric)
    Kfull = np.take(K, SLOT, axis=0, out=w["Kfull"], mode="clip")
    Kmix = np.einsum("kl...,lj...->kj...",
                     geo.at_interior(w["ginv_full"]), Kfull, out=w["Kmix"])
    trK = Kmix[0, 0] + Kmix[1, 1] + Kmix[2, 2]
    KK = w["KK"]                                        # K_ik K^k_j
    for i, row in ROWS:
        np.einsum("k...,kj...->j...", Kfull[i], Kmix[:, i:], out=KK[row])

    dt_gamma = -2.0 * alpha * K
    dt_K = -dda + alpha * (geo.ricci + trK * K - 2.0 * KK)
    dt_alpha = lapse_rhs(gauge, alpha, trK)
    return dt_gamma, dt_K, dt_alpha
