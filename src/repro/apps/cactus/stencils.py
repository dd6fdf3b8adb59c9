"""Finite-difference stencils on ghost-extended 3D arrays.

All Cactus fields live on arrays extended by ``ghost`` cells per side.
Derivative operators read neighbours by slicing, so their output is valid
on a region shrunk by one cell per application; the solver tracks this by
construction (ghost width 2 covers first derivatives of quantities that
are themselves first derivatives, e.g. the Ricci tensor's dGamma).

The serial solver fills ghosts periodically; the parallel driver fills
them from neighbouring ranks (Fig. 6) — the operators are identical, which
is what makes parallel-vs-serial bitwise comparison meaningful.
"""

from __future__ import annotations

import numpy as np

from .tensors import SYM_INDEX

GHOST = 2  # default (2nd-order) ghost width


def ghost_for(order: int) -> int:
    """Ghost width for a given finite-difference order.

    Curvature applies first derivatives twice, so the ghost width is
    ``2 * (order // 2)``: 2 for the default 2nd-order stencils, 4 for
    the 4th-order ones.
    """
    if order not in (2, 4):
        raise ValueError("supported finite-difference orders: 2, 4")
    return order


#: 5-point 4th-order first-derivative coefficients at offsets -2..+2.
_D1_O4 = (1.0 / 12.0, -8.0 / 12.0, 0.0, 8.0 / 12.0, -1.0 / 12.0)
#: 5-point 4th-order second-derivative coefficients at offsets -2..+2.
_D2_O4 = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0,
          -1.0 / 12.0)


def fill_ghosts_periodic(ext: np.ndarray, ghost: int = GHOST) -> None:
    """Fill ghost cells of the *last three* axes from the periodic interior.

    In-place; works for any leading component dimensions.
    """
    g = ghost
    for ax in (-3, -2, -1):
        n = ext.shape[ax] - 2 * g
        if n < g:
            raise ValueError("interior smaller than ghost width")
        src_hi = _axslice(ax, g, 2 * g)
        dst_hi = _axslice(ax, n + g, n + 2 * g)
        src_lo = _axslice(ax, n, n + g)
        dst_lo = _axslice(ax, 0, g)
        ext[dst_hi] = ext[src_hi]
        ext[dst_lo] = ext[src_lo]


def _axslice(ax: int, start: int, stop: int) -> tuple:
    sl = [slice(None)] * 3
    sl[ax + 3] = slice(start, stop)
    return (Ellipsis, *sl)


def _shifted(f: np.ndarray, ax: int, offset: int,
             pad: int = 1) -> np.ndarray:
    """View of ``f`` shifted by ``offset`` along grid axis ``ax`` (0..2),
    shrunk by ``pad`` cells on each side of every axis."""
    n = f.shape[ax - 3]
    sl = [slice(pad, -pad)] * 3
    sl[ax] = slice(pad + offset, n - pad + offset)
    return f[(Ellipsis, *sl)]


def _accumulate(terms, out: np.ndarray | None) -> np.ndarray:
    """``sum(c * view for view, c in terms)`` with one scratch buffer.

    ``terms`` yields (view, coefficient) pairs; the first product lands
    in ``out`` and the rest are added through a single reused scratch
    array, keeping the naive sum's accumulation order (and therefore its
    bits) while allocating at most two buffers total.
    """
    it = iter(terms)
    view, c = next(it)
    out = np.multiply(view, c, out=out)
    scratch = None
    for view, c in it:
        if scratch is None:
            scratch = np.empty_like(out)
        np.multiply(view, c, out=scratch)
        out += scratch
    return out


def deriv1(f: np.ndarray, ax: int, h: float, order: int = 2,
           out: np.ndarray | None = None) -> np.ndarray:
    """Centered first derivative along grid axis ``ax``.

    Input has ghost width g; output shrinks by ``order // 2`` cells per
    side on *all* grid axes (the valid region after one application).
    ``out`` receives the result in place when given (fused strided
    update: no intermediate per-offset temporaries).
    """
    if order == 2:
        out = np.subtract(_shifted(f, ax, 1), _shifted(f, ax, -1),
                          out=out)
        out /= 2.0 * h
        return out
    if order == 4:
        out = _accumulate(((_shifted(f, ax, o, pad=2), c)
                           for o, c in zip((-2, -1, 0, 1, 2), _D1_O4)
                           if c), out)
        out /= h
        return out
    raise ValueError("supported orders: 2, 4")


def deriv2(f: np.ndarray, ax: int, h: float, order: int = 2,
           out: np.ndarray | None = None) -> np.ndarray:
    """Centered second derivative along ``ax``; shrinks by order//2."""
    if order == 2:
        out = np.multiply(_shifted(f, ax, 0), 2.0, out=out)
        np.subtract(_shifted(f, ax, 1), out, out=out)
        out += _shifted(f, ax, -1)
        out /= h * h
        return out
    if order == 4:
        out = _accumulate(((_shifted(f, ax, o, pad=2), c)
                           for o, c in zip((-2, -1, 0, 1, 2), _D2_O4)),
                          out)
        out /= h * h
        return out
    raise ValueError("supported orders: 2, 4")


def deriv_mixed(f: np.ndarray, ax1: int, ax2: int, h1: float,
                h2: float, order: int = 2,
                out: np.ndarray | None = None) -> np.ndarray:
    """Mixed second derivative; shrinks by order//2 per side.

    The 4th-order form is the tensor product of two 4th-order
    first-derivative stencils (offsets -2..2 in both directions).
    """
    if ax1 == ax2:
        return deriv2(f, ax1, h1, order, out=out)
    pad = order // 2
    n1 = f.shape[ax1 - 3]
    n2 = f.shape[ax2 - 3]

    def corner(o1: int, o2: int) -> np.ndarray:
        sl = [slice(pad, -pad)] * 3
        sl[ax1] = slice(pad + o1, n1 - pad + o1)
        sl[ax2] = slice(pad + o2, n2 - pad + o2)
        return f[(Ellipsis, *sl)]

    if order == 2:
        out = np.subtract(corner(1, 1), corner(1, -1), out=out)
        out -= corner(-1, 1)
        out += corner(-1, -1)
        out /= 4.0 * h1 * h2
        return out
    out = _accumulate(((corner(o1, o2), c1 * c2)
                       for o1, c1 in zip((-2, -1, 0, 1, 2), _D1_O4)
                       if c1
                       for o2, c2 in zip((-2, -1, 0, 1, 2), _D1_O4)
                       if c2), out)
    out /= h1 * h2
    return out


def _shrunk_shape(f: np.ndarray, pad: int) -> tuple[int, ...]:
    return f.shape[:-3] + tuple(n - 2 * pad for n in f.shape[-3:])


def grad(f: np.ndarray, spacing: tuple[float, float, float],
         order: int = 2, out: np.ndarray | None = None) -> np.ndarray:
    """All three first derivatives, stacked on a new leading axis.

    Each derivative is computed directly into its slot of ``out`` —
    the axis loop is fused into three strided in-place expressions with
    no stack copy.
    """
    if out is None:
        out = np.empty((3, *_shrunk_shape(f, order // 2)),
                       dtype=np.result_type(f.dtype, np.float64))
    for ax in range(3):
        deriv1(f, ax, spacing[ax], order, out=out[ax])
    return out


def hessian(f: np.ndarray, spacing: tuple[float, float, float],
            order: int = 2, out: np.ndarray | None = None) -> np.ndarray:
    """Second derivatives as a packed symmetric (6, ...) field, in the
    order (xx, xy, xz, yy, yz, zz)."""
    if out is None:
        out = np.empty((6, *_shrunk_shape(f, order // 2)),
                       dtype=np.result_type(f.dtype, np.float64))
    for p, (a, b) in enumerate(SYM_INDEX):
        deriv_mixed(f, a, b, spacing[a], spacing[b], order, out=out[p])
    return out


def interior(ext: np.ndarray, shrink: int) -> np.ndarray:
    """Strip ``shrink`` cells per side of the last three axes."""
    if shrink == 0:
        return ext
    sl = (Ellipsis,) + (slice(shrink, -shrink),) * 3
    return ext[sl]


def extend(field: np.ndarray, ghost: int = GHOST) -> np.ndarray:
    """Embed an interior field into a ghost-extended array (zeros)."""
    shape = field.shape[:-3] + tuple(n + 2 * ghost
                                     for n in field.shape[-3:])
    ext = np.zeros(shape, dtype=field.dtype)
    ext[(Ellipsis,) + (slice(ghost, -ghost),) * 3] = field
    return ext


def kreiss_oliger(ext: np.ndarray, spacing: tuple[float, float, float],
                  sigma: float, ghost: int = GHOST,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-derivative Kreiss-Oliger dissipation, interior-shaped.

    ``Q f = -sigma/(16 h) (f_{i-2} - 4 f_{i-1} + 6 f_i - 4 f_{i+1}
    + f_{i+2})`` summed over the three axes — the standard stabilizer for
    second-order-accurate evolutions (it is below the truncation order).
    Requires ghost width >= 2, which :data:`GHOST` provides.
    """
    if sigma < 0:
        raise ValueError("dissipation strength must be >= 0")
    if ghost < 2:
        raise ValueError("Kreiss-Oliger needs ghost width >= 2")
    g = ghost
    core = (Ellipsis,) + (slice(g, -g),) * 3
    shape = ext[core].shape
    if out is None:
        out = np.zeros(shape, dtype=ext.dtype)
    else:
        out[...] = 0.0
    if sigma == 0.0:
        return out
    acc = np.empty(shape, dtype=ext.dtype)
    term = np.empty(shape, dtype=ext.dtype)
    for ax in range(3):
        n = ext.shape[ax - 3]

        def off(o: int) -> np.ndarray:
            sl = [slice(g, -g)] * 3
            sl[ax] = slice(g + o, n - g + o)
            return ext[(Ellipsis, *sl)]

        # acc = off(-2) - 4 off(-1) + 6 off(0) - 4 off(1) + off(2),
        # evaluated in the naive expression's order through two scratch
        # buffers instead of five temporaries.
        np.multiply(off(-1), 4.0, out=term)
        np.subtract(off(-2), term, out=acc)
        np.multiply(off(0), 6.0, out=term)
        acc += term
        np.multiply(off(1), 4.0, out=term)
        acc -= term
        acc += off(2)
        acc *= -sigma / (16.0 * spacing[ax])
        out += acc
    return out
