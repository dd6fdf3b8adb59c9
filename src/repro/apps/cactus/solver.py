"""Serial Cactus-style ADM evolver.

Couples the pieces: ghost-extended storage (:mod:`stencils`), the ADM
right-hand side (:mod:`adm`), method-of-lines integrators (:mod:`mol`),
and boundary conditions (:mod:`boundaries`).  Weak scaling, constraint
monitoring, and the parallel driver mirror the paper's §5 usage.

The state is the paper's 12 evolution variables plus the lapse: packed
symmetric gamma_ij and K_ij (6 components each, :mod:`tensors`) and
alpha, 13 fields in all.  Full (3, 3, ...) tensors are packed once on
the way in and unpacked only by the read-only :attr:`CactusSolver.gamma`
and :attr:`CactusSolver.K` accessors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adm import GAUGES, adm_rhs
from .boundaries import apply_sommerfeld
from .geometry import (Curvature, Workspace, curvature,
                       hamiltonian_constraint, momentum_constraint)
from .mol import INTEGRATORS, State, icn_step, leapfrog_step, step as mol_step
from .stencils import extend, fill_ghosts_periodic, ghost_for, kreiss_oliger
from .tensors import to_full, to_packed

#: Sommerfeld asymptotic value of each packed gamma component (flat metric)
_FLAT = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])[:, None, None]


@dataclass
class ConstraintNorms:
    """Norms of the four constraints (vacuum: all ideally zero)."""

    hamiltonian_linf: float
    hamiltonian_l2: float
    momentum_linf: float

    def max_violation(self) -> float:
        return max(self.hamiltonian_linf, self.momentum_linf)


class CactusSolver:
    """3+1 vacuum ADM evolution on a periodic or radiative 3D box.

    Takes full (3, 3, nx, ny, nz) ``gamma`` and ``K``, and the keyword
    options of :meth:`_setup`; the evolved state is
    ``gamma_packed``/``K_packed`` (6, nx, ny, nz) and ``alpha``.
    """

    def __init__(self, gamma: np.ndarray, K: np.ndarray,
                 alpha: np.ndarray, **options):
        if gamma.shape[:2] != (3, 3) or K.shape != gamma.shape:
            raise ValueError("gamma and K must be full (3,3,nx,ny,nz)")
        self._setup(to_packed(gamma), to_packed(K), alpha, **options)

    def _setup(self, gamma: np.ndarray, K: np.ndarray, alpha: np.ndarray,
               *, spacing: float | tuple[float, float, float] = 0.1,
               dt: float | None = None, gauge: str = "harmonic",
               integrator: str = "icn", boundary: str = "periodic",
               dissipation: float = 0.0, order: int = 2) -> None:
        """Validate the options and take packed (6, ...) state."""
        if gauge not in GAUGES:
            raise ValueError(f"unknown gauge {gauge!r}")
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        if boundary not in ("periodic", "radiative"):
            raise ValueError(f"unknown boundary {boundary!r}")
        self.shape = gamma.shape[1:]
        if alpha.shape != self.shape:
            raise ValueError("alpha shape mismatch")
        if isinstance(spacing, (int, float)):
            spacing = (float(spacing),) * 3
        self.spacing = tuple(float(h) for h in spacing)
        # CFL: harmonic slicing propagates at the coordinate light speed.
        self.dt = dt if dt is not None else 0.25 * min(self.spacing)
        self.gauge = gauge
        self.integrator = integrator
        self.boundary = boundary
        if dissipation < 0:
            raise ValueError("dissipation must be >= 0")
        #: finite-difference order (2 or 4) and the ghost width it needs
        self.order = order
        self.ghost = ghost_for(order)
        #: Kreiss-Oliger dissipation strength (0 disables); radiative
        #: boundaries on plain ADM need it to suppress the boundary-fed
        #: high-frequency instability.
        self.dissipation = dissipation
        #: packed (6, ...) gamma_ij and K_ij: the evolved state
        self.gamma_packed = np.array(gamma, dtype=np.float64)
        self.K_packed = np.array(K, dtype=np.float64)
        self.alpha = np.array(alpha, dtype=np.float64)
        self.time = 0.0
        self.step_count = 0
        self._prev_state: State | None = None  # leapfrog history
        #: the kernels' scratch arrays, reused by every evaluation
        self._work = Workspace(tuple(n + 2 * self.ghost
                                     for n in self.shape), order)

    @property
    def gamma(self) -> np.ndarray:
        """The 3-metric as a full (3, 3, ...) array (a read-only copy)."""
        return _read_only(to_full(self.gamma_packed))

    @property
    def K(self) -> np.ndarray:
        """Extrinsic curvature as a full (3, 3, ...) array (read-only)."""
        return _read_only(to_full(self.K_packed))

    # -- ghost handling ------------------------------------------------------
    def _extended(self, state: State) -> tuple[np.ndarray, ...]:
        out = []
        for f in state:
            ext = extend(f, self.ghost)
            if self.boundary == "periodic":
                fill_ghosts_periodic(ext, self.ghost)
            else:
                self._fill_ghosts_extrapolate(ext)
            out.append(ext)
        return tuple(out)

    def _fill_ghosts_extrapolate(self, ext: np.ndarray) -> None:
        """Copy the outermost interior plane outward (radiative setup)."""
        g = self.ghost
        for ax in (-3, -2, -1):
            n = ext.shape[ax] - 2 * g
            sl = [slice(None)] * 3

            def plane(i):
                s = list(sl)
                s[ax + 3] = slice(i, i + 1)
                return (Ellipsis, *s)

            for k in range(g):
                ext[plane(k)] = ext[plane(g)]
                ext[plane(n + g + k)] = ext[plane(n + g - 1)]

    # -- RHS -----------------------------------------------------------------
    def _rhs(self, state: State) -> State:
        gamma, K, alpha = state
        g_ext, K_ext, a_ext = self._extended(state)
        dt_gamma, dt_K, dt_alpha = adm_rhs(
            g_ext, K_ext, a_ext, self.spacing, self.gauge,
            order=self.order, work=self._work)
        if self.dissipation > 0.0:
            dt_gamma = dt_gamma + kreiss_oliger(
                g_ext, self.spacing, self.dissipation, ghost=self.ghost)
            dt_K = dt_K + kreiss_oliger(
                K_ext, self.spacing, self.dissipation, ghost=self.ghost)
            dt_alpha = dt_alpha + kreiss_oliger(
                a_ext, self.spacing, self.dissipation, ghost=self.ghost)
        if self.boundary == "radiative":
            apply_sommerfeld(gamma, dt_gamma, _FLAT, self.shape,
                             self.spacing)
            apply_sommerfeld(K, dt_K, 0.0, self.shape, self.spacing)
            apply_sommerfeld(alpha, dt_alpha, 1.0, self.shape,
                             self.spacing)
        return dt_gamma, dt_K, dt_alpha

    # -- public API ------------------------------------------------------------
    def state(self) -> State:
        """The evolved fields: packed gamma, packed K, alpha."""
        return self.gamma_packed, self.K_packed, self.alpha

    def step(self, nsteps: int = 1) -> None:
        for _ in range(nsteps):
            state = self.state()
            if self.integrator == "leapfrog":
                if self._prev_state is None:
                    new = icn_step(state, self._rhs, self.dt)
                else:
                    new = leapfrog_step(self._prev_state, state,
                                        self._rhs, self.dt)
                self._prev_state = state
            else:
                new = mol_step(self.integrator, state, self._rhs,
                               self.dt)
            self.gamma_packed, self.K_packed, self.alpha = new
            self.time += self.dt
            self.step_count += 1

    def _geometry(self) -> tuple[Curvature, np.ndarray]:
        """Curvature of the current metric, and the ghost-extended K."""
        g_ext, K_ext, _ = self._extended(self.state())
        return curvature(g_ext, self.spacing, self.order,
                         self._work), K_ext

    def hamiltonian_linf(self) -> float:
        """Max-norm of the Hamiltonian constraint alone (health checks)."""
        geo, K_ext = self._geometry()
        return float(np.abs(hamiltonian_constraint(geo, K_ext)).max())

    def constraints(self) -> ConstraintNorms:
        geo, K_ext = self._geometry()
        H = hamiltonian_constraint(geo, K_ext)
        M = momentum_constraint(geo, K_ext, self.spacing)
        return ConstraintNorms(
            hamiltonian_linf=float(np.abs(H).max()),
            hamiltonian_l2=float(np.sqrt(np.mean(H**2))),
            momentum_linf=float(np.abs(M).max()),
        )

    def deviation_from(self, gamma: np.ndarray, K: np.ndarray,
                       alpha: np.ndarray) -> float:
        """Max-norm distance to a full-tensor reference solution
        (exact-wave tests)."""
        return max(float(np.abs(self.gamma_packed
                                - to_packed(gamma)).max()),
                   float(np.abs(self.K_packed - to_packed(K)).max()),
                   float(np.abs(self.alpha - alpha).max()))

    def max_field(self) -> float:
        return max(float(np.abs(f).max()) for f in self.state())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
