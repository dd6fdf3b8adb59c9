"""Parallel GTC: 1D toroidal domain decomposition on the runtime (§6.1).

Each rank owns one group of poloidal planes (the paper's production
configuration is one domain per plane, at most 64); particles live with
the rank whose zeta range contains them.  The cycle per step is

  charge deposition (local)  ->  Poisson solve (local planes)
  ->  gather-push (local)    ->  shift (neighbour exchange).

Agreement with the serial :class:`~repro.apps.gtc.solver.GTCSolver` is
exact up to floating-point summation order (integration-tested at 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...resilience.online import OnlineRunner
from ...runtime import (
    Block1D,
    Comm,
    FaultInjector,
    OnlineRecoveryError,
    ParallelJob,
    RepairRecord,
    Transport,
)
from .grid import TorusGeometry
from .particles import ParticleArray
from .shift import shift_particles
from .solver import GTCSolver

if TYPE_CHECKING:
    from ...resilience.checkpoint import Checkpointer
    from ...resilience.health import HealthConfig
    from ...resilience.supervisor import RecoveryPolicy


@dataclass
class GTCRankResult:
    domain: int
    nparticles: int
    kinetic_energy: float
    field_energy: float
    total_charge: float
    phi_planes: list[np.ndarray]
    tags: np.ndarray


def run_parallel(geometry: TorusGeometry, particles: ParticleArray, *,
                 nprocs: int, nsteps: int, dt: float = 0.05,
                 alpha: float = 1.0, depositor: str = "classic",
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
                 ) -> list[GTCRankResult]:
    """Run GTC on ``nprocs`` ranks; returns per-rank results.

    ``geometry.nplanes`` must be divisible by ``nprocs`` and ``nprocs``
    respects GTC's 64-domain decomposition limit (via
    :class:`~repro.runtime.decomposition.Block1D`).

    Resilience: checkpoints save each rank's particle population (the
    fields are recomputed from the particles every step); a supervised
    restart after an injected rank crash resumes from the last
    *verified* checkpoint and matches the uninterrupted run.
    ``health`` enables the PIC invariants as corruption detectors:
    the global particle count is exactly conserved across shifts, the
    total kinetic energy drifts only slowly, and every phase-space
    array must stay finite.  ``policy`` customizes (and records)
    restart/rollback decisions.

    Online recovery: ``spares > 0`` respawns a killed domain in place
    (log replay from the last checkpoint, bit-identical completion);
    ``on_shrink`` re-partitions the poloidal planes over the survivors
    and redistributes the checkpointed particles by the new plane
    ownership — only possible when ``geometry.nplanes`` divides evenly
    by the shrunken size (pass a callable to observe the remap:
    ``on_shrink(comm, record)``).

    ``backend="process"`` runs the domains as OS processes (zero-copy
    shared-memory transport); results are bit-identical to the thread
    backend.
    """
    if geometry.nplanes % nprocs:
        raise ValueError("nplanes must be divisible by nprocs")
    Block1D(nprocs, max(geometry.nplanes, nprocs))  # enforce 64-domain cap
    npts_global = geometry.plane.npoints * geometry.nplanes
    charge_scale = npts_global / max(len(particles), 1)

    rank_main = _GTCRankMain(
        geometry, particles, nsteps=nsteps, dt=dt, alpha=alpha,
        depositor=depositor, charge_scale=charge_scale, nprocs=nprocs,
        injector=injector, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, health=health, policy=policy,
        on_shrink=on_shrink)
    job = ParallelJob(nprocs, transport=transport, injector=injector,
                      sanitize=sanitize, spares=spares, backend=backend)
    if injector is not None or checkpoint is not None or policy is not None:
        from ...resilience.supervisor import ResilientJob
        results = ResilientJob(job, max_restarts=max_restarts,
                               policy=policy,
                               checkpoint=checkpoint).run(rank_main)
    else:
        results = job.run(rank_main)
    return [res for res in results if res is not None]


class _GTCRankMain:
    """Picklable per-rank entry point (shared by both backends)."""

    def __init__(self, geometry, particles, *, nsteps, dt, alpha,
                 depositor, charge_scale, nprocs, injector, checkpoint,
                 checkpoint_every, health, policy, on_shrink):
        self.geometry = geometry
        self.particles = particles
        self.nsteps = nsteps
        self.dt = dt
        self.alpha = alpha
        self.depositor = depositor
        self.charge_scale = charge_scale
        self.nprocs = nprocs
        self.injector = injector
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.health = health
        self.policy = policy
        self.on_shrink = on_shrink

    def __call__(self, comm: Comm) -> GTCRankResult:
        return _gtc_rank_body(
            comm, self.geometry, self.particles, nsteps=self.nsteps,
            dt=self.dt, alpha=self.alpha, depositor=self.depositor,
            charge_scale=self.charge_scale, nprocs=self.nprocs,
            injector=self.injector, checkpoint=self.checkpoint,
            checkpoint_every=self.checkpoint_every, health=self.health,
            policy=self.policy, on_shrink=self.on_shrink)


def _gtc_rank_body(comm: Comm, geometry, particles, *, nsteps, dt, alpha,
                   depositor, charge_scale, nprocs, injector, checkpoint,
                   checkpoint_every, health, policy,
                   on_shrink) -> GTCRankResult:
    """One rank's full GTC program (shared by both backends)."""
    monitor = None
    if health is not None:
        from ...resilience.health import HealthMonitor
        monitor = HealthMonitor(comm, health)
    tracer = comm.transport.tracer

    def build(pool: ParticleArray) -> GTCSolver:
        rank = comm.rank
        per = geometry.nplanes // comm.size
        plane_ids = geometry.plane_of(pool.zeta)
        mine = pool.select(
            (plane_ids >= rank * per)
            & (plane_ids < (rank + 1) * per))
        # Local solver over this rank's plane group; zeta stays
        # global.
        return GTCSolver(geometry, mine, dt=dt, alpha=alpha,
                         depositor=depositor,
                         charge_scale=charge_scale,
                         plane_range=(rank * per, per))

    local = build(particles)

    def _copy_particles(p: ParticleArray) -> ParticleArray:
        return ParticleArray(
            r=p.r.copy(), theta=p.theta.copy(), zeta=p.zeta.copy(),
            v_par=p.v_par.copy(), mu=p.mu.copy(), w=p.w.copy(),
            tag=p.tag.copy())

    def save(label: int) -> None:
        p = local.particles
        checkpoint.save(label, comm.rank,
                        r=p.r, theta=p.theta, zeta=p.zeta,
                        v_par=p.v_par, mu=p.mu, w=p.w, tag=p.tag)

    def load(label: int) -> None:
        data = checkpoint.load(label, comm.rank)
        local.particles = ParticleArray(
            r=data["r"], theta=data["theta"], zeta=data["zeta"],
            v_par=data["v_par"], mu=data["mu"], w=data["w"],
            tag=data["tag"])
        local.step_count = label

    def snapshot():
        return _copy_particles(local.particles), local.step_count

    def restore(snap) -> None:
        local.particles = _copy_particles(snap[0])
        local.step_count = snap[1]

    def _neighbor_set() -> set:
        return {comm._global((comm.rank - 1) % comm.size),
                comm._global((comm.rank + 1) % comm.size)} \
            - {comm._global(comm.rank)}

    def shrink_hook(comm_: Comm, record: RepairRecord) -> None:
        # Re-partition the planes over the survivors and rebuild
        # this rank's particle population from the *old* ranks'
        # checkpoint shards (particles carry global coordinates, so
        # ownership is just re-selection by the new plane ranges).
        nonlocal local
        if geometry.nplanes % comm.size:
            raise OnlineRecoveryError(
                f"cannot shrink GTC to {comm.size} domains: "
                f"{geometry.nplanes} planes do not divide evenly")
        label = record.rollback_step
        if label > 0 and checkpoint is not None:
            shards = [checkpoint.load(label, old)
                      for old in range(nprocs)]
            pool = ParticleArray(**{
                k: np.concatenate([s[k] for s in shards])
                for k in ("r", "theta", "zeta", "v_par", "mu",
                          "w", "tag")})
        else:
            pool = particles
        local = build(pool)
        local.step_count = label
        runner.neighbors = _neighbor_set()
        if callable(on_shrink):
            on_shrink(comm, record)

    def body(step_index: int) -> None:
        if injector is not None:
            injector.tick(comm.rank, step_index)
            p = local.particles
            injector.sdc(comm.rank, step_index,
                         {"r": p.r, "theta": p.theta,
                          "zeta": p.zeta, "v_par": p.v_par,
                          "mu": p.mu, "w": p.w})
        if tracer.enabled:
            tracer.instant(comm.rank, "step", "phase",
                           {"step": step_index})
        with comm.phase("charge"):
            local.charge_deposition()
        with comm.phase("poisson"):
            local.field_solve()
        with comm.phase("push"):
            local.gather_push()
        with comm.phase("shift"):
            merged, _ = shift_particles(comm, geometry,
                                        local.particles,
                                        comm.rank, comm.size)
            local.particles = merged
        if monitor is not None and monitor.due(step_index):
            with comm.phase("diagnostics"):
                p = local.particles
                monitor.guard_finite(step_index, "gtc.finite",
                                     p.r, p.theta, p.zeta, p.v_par,
                                     p.mu, p.w)
                count = comm.allreduce(len(p))
                monitor.check_conserved(step_index, "gtc.particles",
                                        float(count),
                                        default_threshold=0.0)
                energy = comm.allreduce(
                    p.kinetic_energy(geometry.b0))
                # The guiding-center push trades v_par^2 against
                # mu*B, conserving kinetic energy to rounding
                # (~1e-16/step); even a single zeroed fast particle
                # shifts the total by >= its ~1% share, so 1e-6
                # separates the two regimes by many orders of
                # magnitude on either side.
                monitor.check_conserved(step_index, "gtc.energy",
                                        energy,
                                        default_threshold=1e-6)

    runner = OnlineRunner(
        comm, nsteps=nsteps, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        save=save if checkpoint is not None else None,
        load=load if checkpoint is not None else None,
        snapshot=snapshot, restore=restore, policy=policy,
        on_shrink=shrink_hook if on_shrink else None,
        neighbors=_neighbor_set())
    runner.run(body)
    diag = local.diagnostics()
    return GTCRankResult(
        domain=comm.rank,
        nparticles=diag.nparticles,
        kinetic_energy=diag.kinetic_energy,
        field_energy=diag.field_energy,
        total_charge=diag.total_charge,
        phi_planes=[p.copy() for p in local.phi],
        tags=np.sort(local.particles.tag.copy()),
    )


def assemble_phi(results: list[GTCRankResult]) -> list[np.ndarray]:
    """Global plane list from per-rank results (rank-major plane order)."""
    planes: list[np.ndarray] = []
    for res in sorted(results, key=lambda r: r.domain):
        planes.extend(res.phi_planes)
    return planes
