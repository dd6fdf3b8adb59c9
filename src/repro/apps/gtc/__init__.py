"""GTC: gyrokinetic toroidal particle-in-cell code (magnetic fusion, §6)."""

from ... import _compat

__all__ = [
    "instrumentation", "DeltaFSolver", "diamagnetic_frequency",
    "load_maxwellian_gradient",
    "AnnulusGrid", "Decomposition2D", "build_profile_2d", "gtc_porting_2d", "run_parallel_2d", "GTCConfig", "GTCDiagnostics", "GTCSolver",
    "ParticleArray", "PoissonSolver", "TorusGeometry", "assemble_phi",
    "build_profile", "classify_movers", "deposit_classic",
    "deposit_sorted", "deposit_work_vector", "electric_field",
    "field_energy", "gather_field", "gtc_porting", "gyro_ring_points",
    "load_ring_perturbation", "load_uniform", "push_rk2", "run_parallel",
    "shift_particles", "table6_configs",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "instrumentation": (),
    "deltaf": ("DeltaFSolver", "diamagnetic_frequency",
               "load_maxwellian_gradient"),
    "deposition": ("deposit_classic", "deposit_sorted",
                   "deposit_work_vector", "gyro_ring_points"),
    "grid": ("AnnulusGrid", "TorusGeometry"),
    "parallel": ("assemble_phi", "run_parallel"),
    "parallel2d": ("Decomposition2D", "run_parallel_2d"),
    "particles": ("ParticleArray", "load_ring_perturbation",
                  "load_uniform"),
    "poisson": ("PoissonSolver",),
    "profile": ("GTCConfig", "build_profile", "build_profile_2d",
                "gtc_porting", "gtc_porting_2d", "table6_configs"),
    "push": ("electric_field", "field_energy", "gather_field", "push_rk2"),
    "shift": ("classify_movers", "shift_particles"),
    "solver": ("GTCDiagnostics", "GTCSolver"),
})
