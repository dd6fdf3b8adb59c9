"""PARATEC: plane-wave DFT total-energy mini-app (materials science, §4)."""

from ... import _compat

__all__ = [
    "BandStructure", "FCC_POINTS", "band_structure", "bands_at_k",
    "kpoint_cartesian",
    "CGStats", "Cell", "Hamiltonian", "ParallelFFT3D", "ParatecConfig",
    "PlaneWaveBasis", "SCFResult", "SCFSolver", "SI_LATTICE_CONSTANT",
    "SphereLayout", "band_density", "build_profile", "cg_iterate",
    "cg_step", "form_factor", "hartree_potential", "lda_xc",
    "local_potential_coefficients", "orthonormalize", "paratec_porting",
    "random_bands", "silicon_primitive", "silicon_supercell",
    "solve_bands_parallel", "solve_dense", "subspace_rotate",
    "table4_configs", "teter_preconditioner", "xc_energy",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "bandstructure": ("FCC_POINTS", "BandStructure", "band_structure",
                      "bands_at_k", "kpoint_cartesian"),
    "basis": ("PlaneWaveBasis",),
    "cg": ("CGStats", "cg_iterate", "cg_step", "random_bands",
           "solve_dense"),
    "density": ("band_density", "hartree_potential", "lda_xc",
                "xc_energy"),
    "fft3d": ("ParallelFFT3D", "SphereLayout"),
    "hamiltonian": ("Hamiltonian", "orthonormalize", "subspace_rotate",
                    "teter_preconditioner"),
    "lattice_cell": ("Cell", "SI_LATTICE_CONSTANT", "silicon_primitive",
                     "silicon_supercell"),
    "parallel": ("solve_bands_parallel",),
    "profile": ("ParatecConfig", "build_profile", "paratec_porting",
                "table4_configs"),
    "pseudopotential": ("form_factor", "local_potential_coefficients"),
    "scf": ("SCFResult", "SCFSolver"),
})
