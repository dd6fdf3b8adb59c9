"""One catalogue of the four applications at small scale.

Every harness that runs the applications takes them from here: the
chaos passes (:mod:`repro.resilience.chaos`), the monitored runs behind
``repro health`` (:mod:`repro.resilience.health`), ``repro trace`` and
``repro report`` (:mod:`repro.obs.runner`), the campaign ``validate``
step and ``repro apps``.  An entry holds what belongs to the
application rather than to a harness:

* :meth:`App.case` binds the app's inputs at a named size to its
  parallel driver for a rank count; :meth:`Case.run` is the one driver
  call, passing the runtime settings (backend, transport, fault
  injector, checkpointing, health monitors, recovery policy, spares,
  shrink hook) straight through;
* ``compare(clean, other)`` is the app's equality rule (:class:`Match`);
* ``physics(case, result)`` is the gate a faulted run must pass (LBMHD
  mass, Cactus finite fields, GTC particle count, PARATEC finite
  eigenvalues); it returns the fact it checked, for harness reports;
* ``validate()`` is the serial validation gate;
* ``model_config(nprocs)`` is the work-profile configuration of the
  small case, the model-side half of ``repro report``'s join.

Harness policy — fault plans, step counts, checkpoint cadence,
tolerances — stays with each harness.

Sizes: ``"small"`` is the default case (LBMHD 16² Orszag-Tang, Cactus
8×4×4 gauge wave, GTC 8×8 annulus with one poloidal plane per rank,
PARATEC Si at ecut 4.0 with 4 bands); ``"medium"`` gives a 4-rank job
room to shrink to 3 ranks (Cactus 8×8×4, GTC 16×16 annulus with 12
planes; LBMHD and PARATEC keep their small inputs).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import numpy as np

from . import APPS

SIZES = ("small", "medium")


class ValidationError(RuntimeError):
    """A serial validation gate produced out-of-tolerance results.

    Raised instead of ``assert`` so the gates still fire under
    ``python -O`` and failures carry a diagnosable message.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def rel_err(a, b) -> float:
    """Largest elementwise deviation of ``b`` from ``a``, relative to ``a``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300),
                        initial=0.0))


@dataclass(frozen=True)
class Match:
    """How one result compares with a clean run of the same case.

    ``rel_err``/``abs_err`` are the largest relative/absolute deviations
    over everything compared; both are ``inf`` when the results cannot
    be compared at all (e.g. GTC runs that lost particles).
    """

    bitwise: bool
    rel_err: float
    abs_err: float


def _match_arrays(pairs) -> Match:
    pairs = [(np.asarray(a), np.asarray(b)) for a, b in pairs]
    return Match(
        all(np.array_equal(a, b) for a, b in pairs),
        max(rel_err(a, b) for a, b in pairs),
        max(float(np.max(np.abs(a.astype(np.float64) - b), initial=0.0))
            for a, b in pairs))


@dataclass
class Case:
    """One app's inputs bound to its parallel driver for ``nprocs`` ranks."""

    nprocs: int
    #: the driver's positional inputs (fields, geometry + particles, cell)
    inputs: tuple
    driver: Callable[..., Any]

    def run(self, steps: int, *, backend: str = "thread", transport=None,
            injector=None, checkpoint=None, checkpoint_every: int = 0,
            health=None, policy=None, spares: int = 0,
            on_shrink: "bool | Callable" = False) -> Any:
        """Run ``steps`` steps (PARATEC: outer CG iterations) and return
        the driver's result; every keyword goes to the driver unchanged."""
        return self.driver(steps, backend=backend, transport=transport,
                           injector=injector, checkpoint=checkpoint,
                           checkpoint_every=checkpoint_every,
                           health=health, policy=policy, spares=spares,
                           on_shrink=on_shrink)


@dataclass(frozen=True)
class App:
    """One catalogue entry (see the module docstring)."""

    name: str
    #: display name in harness output
    title: str
    #: rank and step count of the default run (``repro trace``)
    nprocs: int
    steps: int
    build: Callable[[str, int], Case]
    compare: Callable[[Any, Any], Match]
    physics: Callable[[Case, Any], str]
    #: what the serial gate runs (the ``repro apps`` line)
    validation: str
    #: the serial gate: ``(payload, summary)``, or :class:`ValidationError`
    validate: Callable[[], tuple[dict, str]]
    model_config: Callable[[int], Any]

    def case(self, size: str = "small", nprocs: int | None = None) -> Case:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r} (one of {SIZES})")
        return self.build(size, self.nprocs if nprocs is None else nprocs)

    @property
    def profile(self) -> ModuleType:
        """The app's work-profile module (``feed_metrics``,
        ``build_profile``)."""
        return importlib.import_module(f"{__package__}.{self.name}.profile")


# -- LBMHD --------------------------------------------------------------------

def _lbmhd_case(size: str, nprocs: int) -> Case:
    from .lbmhd import orszag_tang
    from .lbmhd.parallel import run_parallel

    rho, u, B = orszag_tang(16, 16)
    return Case(nprocs, (rho, u, B),
                lambda steps, **kw: run_parallel(
                    rho, u, B, nprocs=nprocs, nsteps=steps, **kw))


def _fields_compare(clean, other) -> Match:
    return _match_arrays(zip(clean, other))


def _lbmhd_physics(case: Case, result) -> str:
    mass = float(result[0].sum())
    if abs(mass - case.inputs[0].sum()) > 1e-8:
        raise AssertionError(f"mass not conserved: {mass}")
    return "mass conserved"


def _lbmhd_validate() -> tuple[dict, str]:
    from .lbmhd import LBMHDSolver, orszag_tang

    s = LBMHDSolver(*orszag_tang(48, 48))
    e0 = s.diagnostics().total_energy
    s.step(30)
    d = s.diagnostics()
    _require(abs(d.mass - 48 * 48) < 1e-8,
             f"LBMHD mass not conserved: {d.mass} != {48 * 48}")
    _require(d.total_energy < e0,
             f"LBMHD energy did not decay: {d.total_energy} >= {e0}")
    return ({"mass_conserved": True, "energy_decayed": True},
            f"energy {e0:.3f}->{d.total_energy:.3f}")


def _lbmhd_config(nprocs: int):
    from .lbmhd.profile import LBMHDConfig

    return LBMHDConfig(16, nprocs)


# -- Cactus -------------------------------------------------------------------

def _cactus_case(size: str, nprocs: int) -> Case:
    from .cactus import gauge_wave
    from .cactus.parallel import run_parallel

    dx = 1.0 / 8
    shape = (8, 4, 4) if size == "small" else (8, 8, 4)
    g, K, a = gauge_wave(shape, dx, amplitude=0.05)
    return Case(nprocs, (g, K, a),
                lambda steps, **kw: run_parallel(
                    g, K, a, nprocs=nprocs, nsteps=steps, spacing=dx,
                    dt=0.2 * dx, **kw))


def _cactus_physics(case: Case, result) -> str:
    if not all(np.all(np.isfinite(f)) for f in result):
        raise AssertionError("non-finite ADM field after faulted run")
    return "fields finite"


def _cactus_validate() -> tuple[dict, str]:
    from .cactus import CactusSolver, gauge_wave

    dx = 1.0 / 16
    c = CactusSolver(*gauge_wave((16, 4, 4), dx, amplitude=0.05),
                     spacing=dx, dt=0.2 * dx, integrator="rk4")
    c.step(10)
    err = c.deviation_from(*gauge_wave((16, 4, 4), dx, amplitude=0.05,
                                       t=c.time))
    _require(err < 5e-3,
             f"Cactus gauge-wave error vs exact too large: {err:.3e}")
    return {"gauge_wave_ok": True}, f"error vs exact {err:.1e}"


def _cactus_config(nprocs: int):
    from .cactus.profile import CactusConfig

    return CactusConfig((8, 4, 4), nprocs)


# -- GTC ----------------------------------------------------------------------

def _gtc_case(size: str, nprocs: int) -> Case:
    from .gtc import AnnulusGrid, TorusGeometry, load_ring_perturbation
    from .gtc.parallel import run_parallel

    if size == "small":
        geom = TorusGeometry(AnnulusGrid(0.2, 1.0, 8, 8), nprocs)
        parts = load_ring_perturbation(geom, 4.0)
    else:
        geom = TorusGeometry(AnnulusGrid(0.2, 1.0, 16, 16), 12)
        parts = load_ring_perturbation(geom, 3.0, mode_m=3, amplitude=0.3,
                                       seed=1)
    return Case(nprocs, (geom, parts),
                lambda steps, **kw: run_parallel(
                    geom, parts, nprocs=nprocs, nsteps=steps, **kw))


def _gtc_compare(clean, other) -> Match:
    """Particle count and the assembled φ planes; when both runs have the
    same domains, also each domain's particle tags (migration) and
    kinetic energy."""
    from .gtc.parallel import assemble_phi

    if (sum(r.nparticles for r in clean)
            != sum(r.nparticles for r in other)):
        return Match(False, math.inf, math.inf)
    phi = _match_arrays(zip(assemble_phi(clean), assemble_phi(other)))
    if len(clean) != len(other):          # shrunk: the domains differ
        return phi
    energy = _match_arrays((c.kinetic_energy, o.kinetic_energy)
                           for c, o in zip(clean, other))
    tags = all(np.array_equal(c.tags, o.tags) for c, o in zip(clean, other))
    return Match(phi.bitwise and energy.bitwise and tags,
                 max(phi.rel_err, energy.rel_err),
                 max(phi.abs_err, energy.abs_err))


def _gtc_physics(case: Case, result) -> str:
    n, loaded = sum(r.nparticles for r in result), len(case.inputs[1])
    if n != loaded:
        raise AssertionError(f"particles not conserved: {n} vs {loaded}")
    return f"{n} particles conserved"


def _gtc_validate() -> tuple[dict, str]:
    from .gtc import (
        AnnulusGrid,
        GTCSolver,
        TorusGeometry,
        load_ring_perturbation,
    )

    geom = TorusGeometry(AnnulusGrid(0.2, 1.0, 16, 16), 2)
    g = GTCSolver(geom, load_ring_perturbation(geom, 4.0), dt=0.05)
    n0 = len(g.particles)
    g.step(5)
    _require(g.diagnostics().nparticles == n0,
             f"GTC particle count not conserved: "
             f"{g.diagnostics().nparticles} != {n0}")
    return {"particles": n0, "conserved": True}, f"{n0} particles conserved"


def _gtc_config(nprocs: int):
    from .gtc.profile import GTCConfig

    return GTCConfig(10, nprocs)


# -- PARATEC ------------------------------------------------------------------

def _paratec_case(size: str, nprocs: int) -> Case:
    from .paratec import silicon_primitive
    from .paratec.parallel import solve_bands_parallel

    cell = silicon_primitive()
    return Case(nprocs, (cell,),
                lambda steps, **kw: solve_bands_parallel(
                    cell, 4.0, 4, nprocs=nprocs, n_outer=steps, n_inner=2,
                    **kw))


def _paratec_compare(clean, other) -> Match:
    return _match_arrays([(clean.eigenvalues, other.eigenvalues)])


def _paratec_physics(case: Case, result) -> str:
    if not np.all(np.isfinite(result.eigenvalues)):
        raise AssertionError("non-finite eigenvalues after faulted run")
    return "eigenvalues finite"


def _paratec_validate() -> tuple[dict, str]:
    from .paratec import (
        Hamiltonian,
        PlaneWaveBasis,
        silicon_primitive,
        solve_dense,
    )

    basis = PlaneWaveBasis(silicon_primitive(), 5.5)
    evals, _ = solve_dense(Hamiltonian.ionic(basis), 5)
    gap = (evals[4] - evals[3]) * 27.2114
    _require(2.5 < gap < 4.5,
             f"PARATEC Gamma gap {gap:.2f} eV outside [2.5, 4.5]")
    return {"gap_in_band": True}, f"Gamma gap {gap:.2f} eV"


def _paratec_config(nprocs: int):
    from .paratec.profile import ParatecConfig

    return ParatecConfig(432, nprocs)


CATALOGUE: dict[str, App] = {app.name: app for app in (
    App("lbmhd", "LBMHD", nprocs=4, steps=5, build=_lbmhd_case,
        compare=_fields_compare, physics=_lbmhd_physics,
        validation="48^2 Orszag-Tang, 30 steps", validate=_lbmhd_validate,
        model_config=_lbmhd_config),
    App("cactus", "Cactus", nprocs=2, steps=4, build=_cactus_case,
        compare=_fields_compare, physics=_cactus_physics,
        validation="gauge wave, n=16", validate=_cactus_validate,
        model_config=_cactus_config),
    App("gtc", "GTC", nprocs=2, steps=3, build=_gtc_case,
        compare=_gtc_compare, physics=_gtc_physics,
        validation="16x16x2 PIC, 5 steps", validate=_gtc_validate,
        model_config=_gtc_config),
    App("paratec", "PARATEC", nprocs=2, steps=2, build=_paratec_case,
        compare=_paratec_compare, physics=_paratec_physics,
        validation="Si Gamma bands", validate=_paratec_validate,
        model_config=_paratec_config),
)}


def get_app(name: str) -> App:
    """The catalogue entry for ``name``; ValueError for an unknown app."""
    try:
        return CATALOGUE[name]
    except KeyError:
        raise ValueError(f"unknown app {name!r}; choose from "
                         f"{', '.join(APPS)}") from None
