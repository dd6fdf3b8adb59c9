"""Parallel PARATEC: fine-grained G-space parallelism (§4.1).

"The code exploits fine-grained parallelism by dividing the plane wave
(Fourier) components for each electron among the different processors":
each rank owns the coefficients of *every* band for its share of the
G-sphere columns (load balanced), the local potential lives on the
real-space x-pencils, and H psi flows through the parallel 3D FFT.
Reductions (dot products, subspace matrices) are allreduces.

The driver runs the same all-band CG algorithm as the serial solver; the
eigenvalues match the serial path to solver tolerance (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...resilience.online import OnlineRunner
from ...runtime import (
    Comm,
    FaultInjector,
    ParallelJob,
    RepairRecord,
    Transport,
)
from .basis import PlaneWaveBasis
from .cg import random_bands
from .fft3d import ParallelFFT3D, SphereLayout
from .lattice_cell import Cell
from .pseudopotential import local_potential_coefficients

if TYPE_CHECKING:
    from ...resilience.checkpoint import Checkpointer
    from ...resilience.health import HealthConfig
    from ...resilience.supervisor import RecoveryPolicy


class DistributedHamiltonian:
    """H applied to (nbands, nG_local) coefficient blocks."""

    def __init__(self, basis: PlaneWaveBasis, fft: ParallelFFT3D,
                 v_slab: np.ndarray):
        self.basis = basis
        self.fft = fft
        self.v_slab = v_slab
        self.kinetic_local = basis.kinetic[fft.my_sphere]

    def apply(self, coeff: np.ndarray) -> np.ndarray:
        coeff = np.atleast_2d(coeff)
        out = self.kinetic_local[None, :] * coeff
        for b in range(coeff.shape[0]):
            psi_r = self.fft.forward(coeff[b])
            out[b] += self.fft.inverse(self.v_slab * psi_r)
        return out


def _dots(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-band <a_b|b_b> with a global reduction."""
    local = np.einsum("bg,bg->b", a.conj(), b)
    return np.asarray(comm.allreduce(local))


def _gram(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (nbands, nbands) overlap with a global reduction (BLAS3)."""
    local = a.conj() @ b.T
    return np.asarray(comm.allreduce(local))


def _orthonormalize(comm: Comm, coeff: np.ndarray) -> np.ndarray:
    """Cholesky orthonormalization using the distributed Gram matrix."""
    s = _gram(comm, coeff, coeff)
    s = 0.5 * (s + s.conj().T)
    l = np.linalg.cholesky(s)
    return np.linalg.solve(l, coeff)


def _subspace_rotate(comm: Comm, ham: DistributedHamiltonian,
                     coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    coeff = _orthonormalize(comm, coeff)
    hpsi = ham.apply(coeff)
    hsub = _gram(comm, coeff, hpsi)
    hsub = 0.5 * (hsub + hsub.conj().T)
    evals, evecs = np.linalg.eigh(hsub)
    return evals, evecs.T @ coeff


def _cg_step(comm: Comm, ham: DistributedHamiltonian,
             coeff: np.ndarray) -> np.ndarray:
    """Distributed version of :func:`repro.apps.paratec.cg.cg_step`."""
    coeff = _orthonormalize(comm, coeff)
    hpsi = ham.apply(coeff)
    eps = _dots(comm, coeff, hpsi).real
    resid = hpsi - eps[:, None] * coeff
    rnorm = np.sqrt(_dots(comm, resid, resid).real)
    converged = rnorm < 1e-9
    resid[converged] = 0.0

    precond = teter_preconditioner_local(ham, comm, coeff)
    g = precond * resid
    # g_j -= sum_i <C_i|g_j> C_i  (project out the occupied subspace).
    overlap = _gram(comm, coeff, g)
    g = g - overlap.T @ coeff

    # Mutually orthonormalize the search directions (distributed MGS),
    # mirroring the serial solver: keeps the all-band update variational.
    d = g.copy()
    ok = np.zeros(len(d), dtype=bool)
    for b in range(len(d)):
        if converged[b]:
            d[b] = 0.0
            continue
        for bp in np.flatnonzero(ok):
            proj = comm.allreduce(d[bp].conj() @ d[b])
            d[b] = d[b] - proj * d[bp]
        norm = np.sqrt(np.real(comm.allreduce(d[b].conj() @ d[b])))
        if norm > 1e-12:
            d[b] = d[b] / norm
            ok[b] = True
        else:
            d[b] = 0.0
    hd = ham.apply(d)
    e_pd = _dots(comm, coeff, hd).real
    e_dd = _dots(comm, d, hd).real
    theta = 0.5 * np.arctan2(-2.0 * e_pd, e_dd - eps)
    e_theta = (eps * np.cos(theta)**2 + e_dd * np.sin(theta)**2
               + 2.0 * e_pd * np.sin(theta) * np.cos(theta))
    theta = np.where(e_theta > eps, theta + 0.5 * np.pi, theta)
    new = np.cos(theta)[:, None] * coeff + np.sin(theta)[:, None] * d
    new[~ok] = coeff[~ok]
    return new


def teter_preconditioner_local(ham: DistributedHamiltonian, comm: Comm,
                               coeff: np.ndarray) -> np.ndarray:
    """Distributed Teter preconditioner (global band kinetic energies)."""
    t_loc = np.einsum("bg,g,bg->b", coeff.conj(), ham.kinetic_local,
                      coeff).real
    n_loc = np.einsum("bg,bg->b", coeff.conj(), coeff).real
    t = np.asarray(comm.allreduce(t_loc))
    n = np.asarray(comm.allreduce(n_loc))
    ke = np.maximum(t / np.maximum(n, 1e-300), 1e-12)
    x = ham.kinetic_local[None, :] / ke[:, None]
    num = 27.0 + 18.0 * x + 12.0 * x**2 + 8.0 * x**3
    return num / (num + 16.0 * x**4)


@dataclass
class ParallelBandsResult:
    eigenvalues: np.ndarray
    rank_sizes: list[int]
    loads: np.ndarray


def solve_bands_parallel(cell: Cell, ecut: float, nbands: int, *,
                         nprocs: int, n_outer: int = 3, n_inner: int = 4,
                         seed: int = 0,
                         transport: Transport | None = None,
                         injector: FaultInjector | None = None,
                         checkpoint: Checkpointer | None = None,
                         checkpoint_every: int = 0,
                         max_restarts: int = 2,
                         health: HealthConfig | None = None,
                         policy: RecoveryPolicy | None = None,
                         sanitize: bool | None = None,
                         spares: int = 0,
                         on_shrink: "bool | callable" = False,
                         backend: str = "thread"
                         ) -> ParallelBandsResult:
    """Distributed all-band CG for the ionic Hamiltonian.

    Starts from the same deterministic random bands as the serial path
    (scattered by column ownership) so results are directly comparable.

    Resilience: checkpoint granularity is one *outer* CG iteration; each
    rank saves its coefficient block every ``checkpoint_every`` outer
    iterations, and a supervised restart after an injected rank crash
    (``injector.plan.crash_step`` counts outer iterations) resumes from
    the last *verified* checkpoint with identical eigenvalues.
    ``health`` enables the electronic-structure invariants as
    corruption detectors: band normalization at outer-iteration entry
    (the previous subspace rotation leaves the bands orthonormal, so
    any deviation is damage — checked *before* orthonormalization
    silently repairs it) and the variational monotonicity of the total
    band energy, plus a NaN/Inf guard on the coefficients.  ``policy``
    customizes (and records) restart/rollback decisions.

    Online recovery: ``spares > 0`` respawns a killed rank in place
    (the collective log replays its missed reductions from the last
    checkpointed outer iteration); ``on_shrink`` rebalances the
    G-sphere columns over the survivors and reassembles the rollback
    coefficient block from the old layout's checkpoint shards (pass a
    callable to observe the remap: ``on_shrink(comm, record)``).

    ``backend="process"`` runs the ranks as OS processes (zero-copy
    shared-memory transport); results are bit-identical to the thread
    backend.
    """
    basis = PlaneWaveBasis(cell, ecut)
    layout = SphereLayout(basis, nprocs)
    v_ion_g = local_potential_coefficients(cell, basis.g_cart)
    v_real = basis.to_grid(v_ion_g).real
    start = random_bands(basis.size, nbands, seed)

    rank_main = _ParatecRankMain(
        basis, layout, v_real, start, nbands=nbands, n_outer=n_outer,
        n_inner=n_inner, nprocs=nprocs, injector=injector,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        health=health, policy=policy, on_shrink=on_shrink)
    job = ParallelJob(nprocs, transport=transport, injector=injector,
                      sanitize=sanitize, spares=spares, backend=backend)
    if injector is not None or checkpoint is not None or policy is not None:
        from ...resilience.supervisor import ResilientJob
        results = ResilientJob(job, max_restarts=max_restarts,
                               policy=policy,
                               checkpoint=checkpoint).run(rank_main)
    else:
        results = job.run(rank_main)
    results = [r for r in results if r is not None]
    evals = results[0][0]
    for ev, _ in results[1:]:
        np.testing.assert_allclose(ev, evals, atol=1e-10)
    return ParallelBandsResult(
        eigenvalues=evals,
        rank_sizes=[r[1] for r in results],
        loads=layout.loads)


class _ParatecRankMain:
    """Picklable per-rank entry point (shared by both backends)."""

    def __init__(self, basis, layout, v_real, start, *, nbands, n_outer,
                 n_inner, nprocs, injector, checkpoint, checkpoint_every,
                 health, policy, on_shrink):
        self.basis = basis
        self.layout = layout
        self.v_real = v_real
        self.start = start
        self.nbands = nbands
        self.n_outer = n_outer
        self.n_inner = n_inner
        self.nprocs = nprocs
        self.injector = injector
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.health = health
        self.policy = policy
        self.on_shrink = on_shrink

    def __call__(self, comm: Comm):
        return _paratec_rank_body(
            comm, self.basis, self.layout, self.v_real, self.start,
            nbands=self.nbands, n_outer=self.n_outer,
            n_inner=self.n_inner, nprocs=self.nprocs,
            injector=self.injector, checkpoint=self.checkpoint,
            checkpoint_every=self.checkpoint_every, health=self.health,
            policy=self.policy, on_shrink=self.on_shrink)


def _paratec_rank_body(comm: Comm, basis, layout, v_real, start, *,
                       nbands, n_outer, n_inner, nprocs, injector,
                       checkpoint, checkpoint_every, health, policy,
                       on_shrink):
    """One rank's full PARATEC program (shared by both backends)."""
    monitor = None
    if health is not None:
        from ...resilience.health import HealthMonitor
        monitor = HealthMonitor(comm, health)
    tracer = comm.transport.tracer

    def build(lay: SphereLayout):
        ft = ParallelFFT3D(basis, lay, comm)
        x0, x1 = lay.x_range(comm.rank)
        return ft, DistributedHamiltonian(basis, ft, v_real[x0:x1])

    fft, ham = build(layout)
    coeff = start[:, fft.my_sphere].copy()
    evals = None

    def save(label: int) -> None:
        checkpoint.save(label, comm.rank, coeff=coeff)

    def load(label: int) -> None:
        nonlocal coeff
        coeff = checkpoint.load(label, comm.rank)["coeff"]

    def snapshot():
        return coeff.copy()

    def restore(snap) -> None:
        nonlocal coeff
        coeff = snap.copy()

    def shrink_hook(comm_: Comm, record: RepairRecord) -> None:
        # Rebalance the columns over the survivors; reassemble the
        # rollback coefficients from the old layout's shards (each
        # shard's columns are indexed by the old sphere indices).
        nonlocal fft, ham, coeff
        new_layout = SphereLayout(basis, comm.size)
        fft, ham = build(new_layout)
        label = record.rollback_step
        if label > 0 and checkpoint is not None:
            coeff_g = np.zeros((nbands, basis.size),
                               dtype=np.complex128)
            for old in range(nprocs):
                shard = checkpoint.load(label, old)["coeff"]
                coeff_g[:, layout.sphere_indices_of(old)] = shard
        else:
            coeff_g = start
        coeff = coeff_g[:, fft.my_sphere].copy()
        if callable(on_shrink):
            on_shrink(comm, record)

    def body(outer: int) -> None:
        nonlocal coeff, evals
        if injector is not None:
            injector.tick(comm.rank, outer)
            injector.sdc(comm.rank, outer, {"coeff": coeff})
        if tracer.enabled:
            tracer.instant(comm.rank, "step", "phase",
                           {"outer": outer})
        if monitor is not None and outer > 0 and monitor.due(outer):
            # At outer-iteration entry the previous subspace
            # rotation left the bands orthonormal; check before
            # _cg_step's orthonormalization repairs any damage
            # (outer 0 starts from unnormalized random bands).
            with comm.phase("diagnostics"):
                monitor.guard_finite(outer, "paratec.finite", coeff)
                norms = _dots(comm, coeff, coeff).real
                monitor.check_absolute(
                    outer, "paratec.norm",
                    float(np.max(np.abs(norms - 1.0))),
                    default_threshold=1e-6)
        with comm.phase("cg"):
            for _ in range(n_inner):
                coeff = _cg_step(comm, ham, coeff)
        with comm.phase("rotate"):
            evals, coeff = _subspace_rotate(comm, ham, coeff)
        if monitor is not None and monitor.due(outer):
            with comm.phase("diagnostics"):
                monitor.check_monotone(outer, "paratec.energy",
                                       float(evals.sum().real),
                                       default_slack=1e-9)

    runner = OnlineRunner(
        comm, nsteps=n_outer, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        save=save if checkpoint is not None else None,
        load=load if checkpoint is not None else None,
        snapshot=snapshot, restore=restore, policy=policy,
        on_shrink=shrink_hook if on_shrink else None)
    runner.run(body)
    with comm.phase("rotate"):
        evals, coeff = _subspace_rotate(comm, ham, coeff)
    return evals, len(fft.my_sphere)
