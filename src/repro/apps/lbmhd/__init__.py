"""LBMHD: 2D magnetohydrodynamic lattice-Boltzmann (plasma physics, §3)."""

from ... import _compat

__all__ = [
    "instrumentation",
    "D2Q9", "OCT9", "Diagnostics", "LBMHDConfig", "LBMHDSolver", "Lattice",
    "build_profile", "collide", "cross_current_sheets", "orszag_tang",
    "resistivity", "run_parallel", "stream_all", "table3_configs",
    "viscosity",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "instrumentation": (),
    "collision": ("collide", "resistivity", "viscosity"),
    "initial": ("cross_current_sheets", "orszag_tang"),
    "lattice": ("D2Q9", "OCT9", "Lattice", "stream_all"),
    "parallel": ("run_parallel",),
    "profile": ("LBMHDConfig", "build_profile", "table3_configs"),
    "solver": ("Diagnostics", "LBMHDSolver"),
})
