"""Packed symmetric-tensor grid fields and pointwise 3x3 algebra.

The ADM variables are symmetric rank-2 tensors over a 3D grid, stored
packed and component-major: a symmetric field is an array of shape
``(6, *grid)`` in the order (xx, xy, xz, yy, yz, zz).  That is the
evolver's only state layout; :func:`to_full`/:func:`to_packed` convert
at its edges (full ``(3, 3, *grid)`` input and output), and
:func:`to_full` also expands an operand for an ``einsum`` contraction.

All algebra (inverse, determinant, traces) is vectorized over the grid
with explicit adjugate formulas — no per-point linear-algebra calls.  A
sum over both indices of a symmetric pair counts each off-diagonal
component twice.
"""

from __future__ import annotations

import numpy as np

#: (i, j) pairs of the packed component order.
SYM_INDEX: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: packed slot for full indices (i, j).
SLOT = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])

#: (row i, packed slots of (i, j) for j >= i): the upper triangle by row
ROWS: tuple[tuple[int, slice], ...] = (
    (0, slice(0, 3)), (1, slice(3, 5)), (2, slice(5, 6)))


def to_full(packed: np.ndarray) -> np.ndarray:
    """(6, ...) packed symmetric components -> full (3, 3, ...) array."""
    if packed.shape[0] != 6:
        raise ValueError("packed symmetric field needs leading dim 6")
    return packed[SLOT]


def to_packed(full: np.ndarray) -> np.ndarray:
    """Full (3, 3, ...) symmetric array -> packed (6, ...) components.

    Reads the upper triangle (i <= j).
    """
    if full.shape[:2] != (3, 3):
        raise ValueError("full tensor field needs leading dims (3, 3)")
    return np.stack([full[i, j] for i, j in SYM_INDEX])


def _cofactors(g: np.ndarray) -> np.ndarray:
    """Packed adjugate of a packed symmetric field."""
    xx, xy, xz, yy, yz, zz = g
    cof = np.empty_like(g)
    cof[0] = yy * zz - yz * yz
    cof[1] = xz * yz - xy * zz
    cof[2] = xy * yz - xz * yy
    cof[3] = xx * zz - xz * xz
    cof[4] = xz * xy - xx * yz
    cof[5] = xx * yy - xy * xy
    return cof


def _det(g: np.ndarray, cof: np.ndarray) -> np.ndarray:
    """Cofactor expansion along the first row."""
    return g[0] * cof[0] + g[1] * cof[1] + g[2] * cof[2]


def sym_det(g: np.ndarray) -> np.ndarray:
    """Determinant of a packed (6, ...) symmetric tensor field."""
    return _det(g, _cofactors(g))


def sym_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a packed (6, ...) symmetric tensor field (adjugate)."""
    inv = _cofactors(g)
    det = _det(g, inv)
    if np.any(np.abs(det) < 1e-300):
        raise ValueError("singular metric encountered")
    inv /= det
    return inv


def trace(t: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Trace ``g^{ij} t_{ij}`` of packed (6, ...) fields."""
    p = g_inv * t
    return (p[0] + p[3] + p[5]) + 2.0 * (p[1] + p[2] + p[4])


def mixed(g_inv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``t^i_j = g^{ik} t_{kj}`` of packed fields, as a full (3, 3, ...)
    array (a mixed tensor is not symmetric)."""
    return np.einsum("ik...,kj...->ij...", to_full(g_inv), to_full(t))


def identity_metric(grid_shape: tuple[int, ...]) -> np.ndarray:
    """Flat (Minkowski spatial) metric as a full (3, 3, *grid) field."""
    g = np.zeros((3, 3, *grid_shape))
    for i in range(3):
        g[i, i] = 1.0
    return g
