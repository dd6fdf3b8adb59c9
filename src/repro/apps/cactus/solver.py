"""Serial Cactus-style ADM evolver.

Couples the pieces: ghost-extended storage (:mod:`stencils`), the ADM
right-hand side (:mod:`adm`), method-of-lines integrators (:mod:`mol`),
and boundary conditions (:mod:`boundaries`).  Weak scaling, constraint
monitoring, and the parallel driver mirror the paper's §5 usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adm import GAUGES, adm_rhs
from .boundaries import apply_sommerfeld
from .geometry import (Curvature, curvature, hamiltonian_constraint,
                       momentum_constraint)
from .mol import INTEGRATORS, State, icn_step, leapfrog_step, step as mol_step
from .stencils import extend, fill_ghosts_periodic, ghost_for, kreiss_oliger


@dataclass
class ConstraintNorms:
    """Norms of the four constraints (vacuum: all ideally zero)."""

    hamiltonian_linf: float
    hamiltonian_l2: float
    momentum_linf: float

    def max_violation(self) -> float:
        return max(self.hamiltonian_linf, self.momentum_linf)


class CactusSolver:
    """3+1 vacuum ADM evolution on a periodic or radiative 3D box."""

    def __init__(self, gamma: np.ndarray, K: np.ndarray,
                 alpha: np.ndarray, *,
                 spacing: float | tuple[float, float, float] = 0.1,
                 dt: float | None = None, gauge: str = "harmonic",
                 integrator: str = "icn", boundary: str = "periodic",
                 dissipation: float = 0.0, order: int = 2):
        if gauge not in GAUGES:
            raise ValueError(f"unknown gauge {gauge!r}")
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        if boundary not in ("periodic", "radiative"):
            raise ValueError(f"unknown boundary {boundary!r}")
        if gamma.shape[:2] != (3, 3) or K.shape != gamma.shape:
            raise ValueError("gamma and K must be full (3,3,nx,ny,nz)")
        self.shape = gamma.shape[2:]
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
        self.gamma = gamma.astype(np.float64).copy()
        self.K = K.astype(np.float64).copy()
        self.alpha = alpha.astype(np.float64).copy()
        self.time = 0.0
        self.step_count = 0
        self._prev_state: State | None = None  # leapfrog history

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
            order=self.order)
        if self.dissipation > 0.0:
            dt_gamma = dt_gamma + kreiss_oliger(
                g_ext, self.spacing, self.dissipation, ghost=self.ghost)
            dt_K = dt_K + kreiss_oliger(
                K_ext, self.spacing, self.dissipation, ghost=self.ghost)
            dt_alpha = dt_alpha + kreiss_oliger(
                a_ext, self.spacing, self.dissipation, ghost=self.ghost)
        if self.boundary == "radiative":
            for i in range(3):
                for j in range(i, 3):
                    f0 = 1.0 if i == j else 0.0
                    apply_sommerfeld(gamma[i, j], dt_gamma[i, j], f0,
                                     self.shape, self.spacing)
                    apply_sommerfeld(K[i, j], dt_K[i, j], 0.0,
                                     self.shape, self.spacing)
                    dt_gamma[j, i] = dt_gamma[i, j]
                    dt_K[j, i] = dt_K[i, j]
            apply_sommerfeld(alpha, dt_alpha, 1.0, self.shape,
                             self.spacing)
        return dt_gamma, dt_K, dt_alpha

    # -- public API ------------------------------------------------------------
    def step(self, nsteps: int = 1) -> None:
        for _ in range(nsteps):
            state = (self.gamma, self.K, self.alpha)
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
            self.gamma, self.K, self.alpha = new
            self.time += self.dt
            self.step_count += 1

    def _geometry(self) -> tuple[Curvature, np.ndarray]:
        """Curvature of the current metric, and the ghost-extended K."""
        g_ext, K_ext, _ = self._extended((self.gamma, self.K, self.alpha))
        return curvature(g_ext, self.spacing, self.order), K_ext

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
        """Max-norm distance to a reference solution (exact-wave tests)."""
        return max(float(np.abs(self.gamma - gamma).max()),
                   float(np.abs(self.K - K).max()),
                   float(np.abs(self.alpha - alpha).max()))

    def max_field(self) -> float:
        return max(float(np.abs(self.gamma).max()),
                   float(np.abs(self.K).max()),
                   float(np.abs(self.alpha).max()))
