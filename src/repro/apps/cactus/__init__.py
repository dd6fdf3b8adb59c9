"""Cactus: 3+1 vacuum ADM general-relativity evolver (astrophysics, §5)."""

from ... import _compat

__all__ = [
    "CactusConfig", "CactusSolver", "ConstraintNorms", "Curvature",
    "GAUGES", "INTEGRATORS", "adm_rhs", "apply_sommerfeld", "brill_pulse",
    "build_profile", "cactus_porting", "curvature", "euler_step",
    "gauge_wave", "hamiltonian_constraint", "icn_step", "lapse_rhs",
    "minkowski", "momentum_constraint", "radius_on_face",
    "random_perturbation", "ricci_scalar", "rk4_step", "run_parallel",
    "sommerfeld_rhs_face", "table5_configs", "ghost_for",
    "kreiss_oliger",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "adm": ("GAUGES", "adm_rhs", "lapse_rhs"),
    "boundaries": ("apply_sommerfeld", "radius_on_face",
                   "sommerfeld_rhs_face"),
    "geometry": ("Curvature", "curvature", "hamiltonian_constraint",
                 "momentum_constraint", "ricci_scalar"),
    "initial": ("brill_pulse", "gauge_wave", "minkowski",
                "random_perturbation"),
    "mol": ("INTEGRATORS", "euler_step", "icn_step", "rk4_step"),
    "parallel": ("run_parallel",),
    "profile": ("CactusConfig", "build_profile", "cactus_porting",
                "table5_configs"),
    "solver": ("CactusSolver", "ConstraintNorms"),
    "stencils": ("ghost_for", "kreiss_oliger"),
})
