"""Naive reference stencils (the pre-fusion expressions).

These are the temporary-allocating forms the fused kernels in
:mod:`repro.apps.cactus.stencils` replaced: every offset view spawns its
own intermediate array.  They are kept verbatim as the ground truth for
the fused kernels' equivalence tests (rtol <= 1e-12; in practice bitwise)
and as the "naive" side of the perf-regression benchmark.
"""

from __future__ import annotations

import numpy as np

from .stencils import _D1_O4, _D2_O4, GHOST, _shifted
from .tensors import SYM_INDEX


def deriv1_ref(f: np.ndarray, ax: int, h: float,
               order: int = 2) -> np.ndarray:
    """Naive centered first derivative (allocating form)."""
    if order == 2:
        return (_shifted(f, ax, 1) - _shifted(f, ax, -1)) / (2.0 * h)
    if order == 4:
        acc = sum(c * _shifted(f, ax, o, pad=2)
                  for o, c in zip((-2, -1, 0, 1, 2), _D1_O4) if c)
        return acc / h
    raise ValueError("supported orders: 2, 4")


def deriv2_ref(f: np.ndarray, ax: int, h: float,
               order: int = 2) -> np.ndarray:
    """Naive centered second derivative (allocating form)."""
    if order == 2:
        return (_shifted(f, ax, 1) - 2.0 * _shifted(f, ax, 0)
                + _shifted(f, ax, -1)) / (h * h)
    if order == 4:
        acc = sum(c * _shifted(f, ax, o, pad=2)
                  for o, c in zip((-2, -1, 0, 1, 2), _D2_O4))
        return acc / (h * h)
    raise ValueError("supported orders: 2, 4")


def deriv_mixed_ref(f: np.ndarray, ax1: int, ax2: int, h1: float,
                    h2: float, order: int = 2) -> np.ndarray:
    """Naive mixed second derivative (allocating form)."""
    if ax1 == ax2:
        return deriv2_ref(f, ax1, h1, order)
    pad = order // 2
    n1 = f.shape[ax1 - 3]
    n2 = f.shape[ax2 - 3]

    def corner(o1: int, o2: int) -> np.ndarray:
        sl = [slice(pad, -pad)] * 3
        sl[ax1] = slice(pad + o1, n1 - pad + o1)
        sl[ax2] = slice(pad + o2, n2 - pad + o2)
        return f[(Ellipsis, *sl)]

    if order == 2:
        return (corner(1, 1) - corner(1, -1) - corner(-1, 1)
                + corner(-1, -1)) / (4.0 * h1 * h2)
    acc = None
    for o1, c1 in zip((-2, -1, 0, 1, 2), _D1_O4):
        if not c1:
            continue
        for o2, c2 in zip((-2, -1, 0, 1, 2), _D1_O4):
            if not c2:
                continue
            term = (c1 * c2) * corner(o1, o2)
            acc = term if acc is None else acc + term
    return acc / (h1 * h2)


def grad_ref(f: np.ndarray, spacing: tuple[float, float, float],
             order: int = 2) -> np.ndarray:
    """Naive gradient: per-axis derivatives gathered with a stack copy."""
    return np.stack([deriv1_ref(f, ax, spacing[ax], order)
                     for ax in range(3)])


def hessian_ref(f: np.ndarray, spacing: tuple[float, float, float],
                order: int = 2) -> np.ndarray:
    """Naive packed (6, ...) Hessian built from allocating mixed
    derivatives."""
    out_shape = deriv2_ref(f, 0, spacing[0], order).shape
    h = np.empty((6, *out_shape))
    for p, (a, b) in enumerate(SYM_INDEX):
        h[p] = deriv_mixed_ref(f, a, b, spacing[a], spacing[b], order)
    return h


def kreiss_oliger_ref(ext: np.ndarray,
                      spacing: tuple[float, float, float],
                      sigma: float, ghost: int = GHOST) -> np.ndarray:
    """Naive Kreiss-Oliger dissipation (five temporaries per axis)."""
    if sigma < 0:
        raise ValueError("dissipation strength must be >= 0")
    if ghost < 2:
        raise ValueError("Kreiss-Oliger needs ghost width >= 2")
    g = ghost
    core = (Ellipsis,) + (slice(g, -g),) * 3
    out = np.zeros(ext[core].shape, dtype=ext.dtype)
    if sigma == 0.0:
        return out
    for ax in range(3):
        n = ext.shape[ax - 3]

        def off(o: int) -> np.ndarray:
            sl = [slice(g, -g)] * 3
            sl[ax] = slice(g + o, n - g + o)
            return ext[(Ellipsis, *sl)]

        out += (-sigma / (16.0 * spacing[ax])) * (
            off(-2) - 4.0 * off(-1) + 6.0 * off(0)
            - 4.0 * off(1) + off(2))
    return out
