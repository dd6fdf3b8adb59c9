"""Boundary conditions.

Periodic ghosts serve the gauge-wave/stability testbeds; the Sommerfeld
radiation condition handles open boundaries — the routine whose
unvectorized form consumed up to 20% of the ES runtime and over 30% on
the X1 until a hard-coded vectorized version was written (§5.1/§5.2).
The implementation here is the vectorized (whole-face, branch-free)
form.

Radiative (Sommerfeld) condition: each field behaves at the boundary as
an outgoing spherical wave around the grid center,

    f(r, t) = f0 + u(r - v t) / r
    =>  dt f = -v dn f - v (f - f0) / r,

applied on each face with one-sided normal derivatives.
"""

from __future__ import annotations

import numpy as np


def sommerfeld_rhs_face(field: np.ndarray, f0: float | np.ndarray,
                        axis: int, side: int, spacing: float,
                        r: np.ndarray, speed: float = 1.0) -> np.ndarray:
    """dt(f) on one boundary face from the radiation condition.

    ``field`` is the interior (unextended) array whose last three axes
    are the grid; ``axis`` in (0,1,2) and ``side`` in (-1, +1) select the
    face; ``r`` is the radius field on that face (same shape as the
    face's grid axes); ``f0`` is a float or an array that broadcasts
    against the face (one asymptotic value per leading component).
    Returns the face time derivative (vectorized over the face).
    """
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    ax = field.ndim - 3 + axis
    n = field.shape[ax]
    if n < 3:
        raise ValueError("need at least 3 points for one-sided stencils")

    def take(i: int) -> np.ndarray:
        return np.take(field, i, axis=ax)

    if side == 1:
        # Second-order one-sided backward difference at the last plane.
        dn = (3.0 * take(n - 1) - 4.0 * take(n - 2) + take(n - 3)) \
            / (2.0 * spacing)
        f_face = take(n - 1)
    else:
        dn = -(3.0 * take(0) - 4.0 * take(1) + take(2)) / (2.0 * spacing)
        f_face = take(0)
    # Outward normal derivative approximates the radial one on the face.
    return -speed * dn - speed * (f_face - f0) / np.maximum(r, 1e-12)


def radius_on_face(shape: tuple[int, int, int],
                   spacing: tuple[float, float, float], axis: int,
                   side: int) -> np.ndarray:
    """Distance from the grid center for every point of one face."""
    coords = [(np.arange(n) - (n - 1) / 2.0) * h
              for n, h in zip(shape, spacing)]
    face_coords = list(coords)
    edge = coords[axis][-1] if side == 1 else coords[axis][0]
    face_coords[axis] = np.array([edge])
    xx, yy, zz = np.meshgrid(*face_coords, indexing="ij")
    r = np.sqrt(xx**2 + yy**2 + zz**2)
    return np.squeeze(r, axis=axis)


def apply_sommerfeld(field: np.ndarray, rhs: np.ndarray,
                     f0: float | np.ndarray,
                     shape: tuple[int, int, int],
                     spacing: tuple[float, float, float],
                     speed: float = 1.0) -> None:
    """Overwrite ``rhs`` on all six faces with the radiation condition.

    ``field``/``rhs`` share their last three axes with ``shape``.
    Faces are processed whole — the vectorized formulation (branch-free
    inner loops) that the X1 port required (§5.1).
    """
    for axis in range(3):
        for side in (-1, 1):
            r = radius_on_face(shape, spacing, axis, side)
            face_rhs = sommerfeld_rhs_face(field, f0, axis, side,
                                           spacing[axis], r, speed)
            idx = [slice(None)] * 3
            idx[axis] = -1 if side == 1 else 0
            rhs[(Ellipsis, *idx)] = face_rhs
