"""Block-parallel Cactus on the simulated runtime (Fig. 6).

The grid is block domain decomposed so that each processor has a section
of the global grid; each right-hand-side evaluation updates the ghost
zones by exchanging data on the faces of its topological neighbours.
Sequential-axis exchange (x, then y spanning filled x-ghosts, then z
spanning both) fills edge and corner ghosts without diagonal messages.

The parallel evolution is bitwise identical to the serial solver
(pointwise arithmetic and ghost values match exactly), which the
integration tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...resilience.online import OnlineRunner
from ...runtime import (
    BlockND,
    Comm,
    FaultInjector,
    ParallelJob,
    ProcessorGrid,
    RepairRecord,
    Transport,
)
from .solver import CactusSolver
from .stencils import extend

if TYPE_CHECKING:
    from ...resilience.checkpoint import Checkpointer
    from ...resilience.health import HealthConfig
    from ...resilience.supervisor import RecoveryPolicy


class _RankCactus(CactusSolver):
    """One rank's solver: ghost fill goes through the communicator."""

    def __init__(self, comm: Comm, decomp: BlockND, gamma, K, alpha,
                 **kwargs):
        kwargs["boundary"] = "periodic"
        bounds = decomp.bounds(comm.rank)
        loc = tuple(slice(a, b) for a, b in bounds)
        super().__init__(gamma[(slice(None), slice(None)) + loc],
                         K[(slice(None), slice(None)) + loc],
                         alpha[loc], **kwargs)
        self.comm = comm
        self.bounds = bounds
        grid = decomp.grid
        coords = grid.coords(comm.rank)
        self.neighbors = {}
        for ax in range(3):
            lo = list(coords)
            hi = list(coords)
            lo[ax] -= 1
            hi[ax] += 1
            self.neighbors[ax] = (grid.rank(tuple(lo)),
                                  grid.rank(tuple(hi)))

    def _rhs(self, state):
        # One traced region per RHS evaluation, so `repro report` can
        # split "evolve" into stencil work vs ghost exchange (the
        # exchange region below nests inside this one).
        with self.comm.region("rhs"):
            return super()._rhs(state)

    def _extended(self, state):
        # One RHS evaluation's ghost fill = one traced region per rank
        # (inside the "evolve" phase; no barrier, the exchange is the
        # synchronization).
        with self.comm.region("ghost-exchange"):
            return self._extended_traced(state)

    def _extended_traced(self, state):
        exts = tuple(extend(f, self.ghost) for f in state)
        g = self.ghost
        for ax in range(3):
            left, right = self.neighbors[ax]
            n = exts[0].shape[ax - 3] - 2 * g

            def strip(e: np.ndarray, start: int, stop: int) -> tuple:
                sl = [slice(None)] * 3
                sl[ax] = slice(start, stop)
                return (Ellipsis, *sl)

            lo_src = [e[strip(e, g, 2 * g)].copy() for e in exts]
            hi_src = [e[strip(e, n, n + g)].copy() for e in exts]
            if left == self.comm.rank:
                # Periodic wrap within this rank (grid dim 1 on this axis).
                for e, lo, hi in zip(exts, lo_src, hi_src):
                    e[strip(e, 0, g)] = hi
                    e[strip(e, n + g, n + 2 * g)] = lo
                continue
            # Send my low strip to the left neighbour (it becomes their
            # high ghost) and my high strip to the right neighbour.
            self.comm.send(lo_src, dest=left, tag=2 * ax)
            self.comm.send(hi_src, dest=right, tag=2 * ax + 1)
            from_left = self.comm.recv(source=left, tag=2 * ax + 1)
            from_right = self.comm.recv(source=right, tag=2 * ax)
            for e, lo, hi in zip(exts, from_left, from_right):
                e[strip(e, 0, g)] = lo
                e[strip(e, n + g, n + 2 * g)] = hi
        return exts


def run_parallel(gamma: np.ndarray, K: np.ndarray, alpha: np.ndarray, *,
                 nprocs: int, nsteps: int,
                 spacing: float | tuple[float, float, float] = 0.1,
                 dt: float | None = None, gauge: str = "harmonic",
                 integrator: str = "icn", order: int = 2,
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
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve on ``nprocs`` ranks; returns assembled (gamma, K, alpha).

    ``injector``/``checkpoint``/``checkpoint_every``/``max_restarts``
    enable fault injection and checkpoint/restart: each rank saves its
    ADM state (and leapfrog history, when present) every
    ``checkpoint_every`` steps, and a supervised restart after a planned
    rank crash resumes from the last *verified* checkpoint.  ``health``
    turns the Hamiltonian-constraint norm into a corruption detector —
    a valid evolution keeps it bounded; a bit flip in the metric or
    extrinsic curvature makes it explode — alongside a NaN/Inf field
    guard.  ``policy`` customizes (and records) restart/rollback
    decisions.

    Online recovery: ``spares > 0`` respawns a killed rank in place
    (log replay from the last checkpoint, bit-identical completion);
    ``on_shrink`` falls back to re-decomposing the 3D grid over the
    survivors and rolling everyone back to the last checkpoint (pass a
    callable to observe the remap: ``on_shrink(comm, record)``).

    ``backend="process"`` runs the ranks as OS processes (zero-copy
    shared-memory transport); results are bit-identical to the thread
    backend.
    """
    shape = gamma.shape[2:]
    grid = ProcessorGrid.for_nprocs(nprocs, 3)
    decomp = BlockND(grid, shape)

    rank_main = _CactusRankMain(
        gamma, K, alpha, spacing=spacing, dt=dt, gauge=gauge,
        integrator=integrator, order=order, nsteps=nsteps, decomp=decomp,
        nprocs=nprocs, injector=injector, checkpoint=checkpoint,
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
    gamma_out = np.empty_like(gamma)
    K_out = np.empty_like(K)
    alpha_out = np.empty_like(alpha)
    for res in results:
        if res is None:       # rank lost to a kill, shrunk around
            continue
        bounds, g_l, K_l, a_l = res
        loc = tuple(slice(a, b) for a, b in bounds)
        gamma_out[(slice(None), slice(None)) + loc] = g_l
        K_out[(slice(None), slice(None)) + loc] = K_l
        alpha_out[loc] = a_l
    return gamma_out, K_out, alpha_out


class _CactusRankMain:
    """Picklable per-rank entry point (shared by both backends)."""

    def __init__(self, gamma, K, alpha, *, spacing, dt, gauge, integrator,
                 order, nsteps, decomp, nprocs, injector, checkpoint,
                 checkpoint_every, health, policy, on_shrink):
        self.gamma = gamma
        self.K = K
        self.alpha = alpha
        self.spacing = spacing
        self.dt = dt
        self.gauge = gauge
        self.integrator = integrator
        self.order = order
        self.nsteps = nsteps
        self.decomp = decomp
        self.nprocs = nprocs
        self.injector = injector
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.health = health
        self.policy = policy
        self.on_shrink = on_shrink

    def __call__(self, comm: Comm):
        return _cactus_rank_body(
            comm, self.gamma, self.K, self.alpha, spacing=self.spacing,
            dt=self.dt, gauge=self.gauge, integrator=self.integrator,
            order=self.order, nsteps=self.nsteps, decomp=self.decomp,
            nprocs=self.nprocs, injector=self.injector,
            checkpoint=self.checkpoint,
            checkpoint_every=self.checkpoint_every, health=self.health,
            policy=self.policy, on_shrink=self.on_shrink)


def _cactus_rank_body(comm: Comm, gamma, K, alpha, *, spacing, dt, gauge,
                      integrator, order, nsteps, decomp, nprocs, injector,
                      checkpoint, checkpoint_every, health, policy,
                      on_shrink):
    """One rank's full Cactus program (shared by both backends)."""
    shape = gamma.shape[2:]
    monitor = None
    if health is not None:
        from ...resilience.health import HealthMonitor
        monitor = HealthMonitor(comm, health)
    tracer = comm.transport.tracer

    def build(dc: BlockND) -> _RankCactus:
        return _RankCactus(comm, dc, gamma, K, alpha,
                           spacing=spacing, dt=dt, gauge=gauge,
                           integrator=integrator, order=order)

    solver = build(decomp)

    def save(label: int) -> None:
        state = dict(gamma=solver.gamma, K=solver.K,
                     alpha=solver.alpha,
                     time=np.float64(solver.time))
        if solver._prev_state is not None:
            prev_g, prev_K, prev_a = solver._prev_state
            state.update(prev_gamma=prev_g, prev_K=prev_K,
                         prev_alpha=prev_a)
        checkpoint.save(label, comm.rank, **state)

    def load(label: int) -> None:
        data = checkpoint.load(label, comm.rank)
        solver.gamma[...] = data["gamma"]
        solver.K[...] = data["K"]
        solver.alpha[...] = data["alpha"]
        solver.time = float(data["time"][()])
        solver.step_count = label
        if "prev_gamma" in data:
            solver._prev_state = (data["prev_gamma"],
                                  data["prev_K"],
                                  data["prev_alpha"])
        else:
            solver._prev_state = None

    def snapshot():
        prev = solver._prev_state
        return (solver.gamma.copy(), solver.K.copy(),
                solver.alpha.copy(), solver.time,
                solver.step_count,
                None if prev is None else tuple(p.copy()
                                                for p in prev))

    def restore(snap) -> None:
        solver.gamma[...] = snap[0]
        solver.K[...] = snap[1]
        solver.alpha[...] = snap[2]
        solver.time = snap[3]
        solver.step_count = snap[4]
        solver._prev_state = snap[5]

    def _neighbor_set(s: _RankCactus) -> set:
        return {comm._global(r)
                for pair in s.neighbors.values() for r in pair
                if r != comm.rank}

    def shrink_hook(comm_: Comm, record: RepairRecord) -> None:
        # Re-decompose over the shrunken grid and reassemble the
        # rollback state from the *old* decomposition's shards
        # (solver shards are interior-only: no halo crop needed).
        nonlocal solver
        solver = build(BlockND(
            ProcessorGrid.for_nprocs(comm.size, 3), shape))
        label = record.rollback_step
        if label > 0 and checkpoint is not None:
            fields = {"gamma": np.zeros_like(gamma),
                      "K": np.zeros_like(K),
                      "alpha": np.zeros_like(alpha)}
            prev = None
            time = 0.0
            for old in range(nprocs):
                data = checkpoint.load(label, old)
                loc = tuple(slice(a, b)
                            for a, b in decomp.bounds(old))
                key = (slice(None), slice(None)) + loc
                fields["gamma"][key] = data["gamma"]
                fields["K"][key] = data["K"]
                fields["alpha"][loc] = data["alpha"]
                time = float(data["time"][()])
                if "prev_gamma" in data:
                    if prev is None:
                        prev = (np.zeros_like(gamma),
                                np.zeros_like(K),
                                np.zeros_like(alpha))
                    prev[0][key] = data["prev_gamma"]
                    prev[1][key] = data["prev_K"]
                    prev[2][loc] = data["prev_alpha"]
            loc = tuple(slice(a, b) for a, b in solver.bounds)
            key = (slice(None), slice(None)) + loc
            solver.gamma[...] = fields["gamma"][key]
            solver.K[...] = fields["K"][key]
            solver.alpha[...] = fields["alpha"][loc]
            solver.time = time
            solver.step_count = label
            solver._prev_state = None if prev is None else (
                prev[0][key].copy(), prev[1][key].copy(),
                prev[2][loc].copy())
        runner.neighbors = _neighbor_set(solver)
        if callable(on_shrink):
            on_shrink(comm, record)

    def body(step_index: int) -> None:
        if injector is not None:
            injector.tick(comm.rank, step_index)
            injector.sdc(comm.rank, step_index,
                         {"gamma": solver.gamma, "K": solver.K,
                          "alpha": solver.alpha})
        if tracer.enabled:
            tracer.instant(comm.rank, "step", "phase",
                           {"step": step_index})
        with comm.phase("evolve"):
            solver.step(1)
        if monitor is not None and monitor.due(step_index):
            with comm.phase("diagnostics"):
                monitor.guard_finite(step_index, "cactus.finite",
                                     solver.gamma, solver.K,
                                     solver.alpha)
                h_linf = comm.allreduce(solver.hamiltonian_linf(),
                                        op="max")
                monitor.check_bounded(step_index,
                                      "cactus.constraint",
                                      h_linf, default_growth=50.0)

    runner = OnlineRunner(
        comm, nsteps=nsteps, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        save=save if checkpoint is not None else None,
        load=load if checkpoint is not None else None,
        snapshot=snapshot, restore=restore, policy=policy,
        on_shrink=shrink_hook if on_shrink else None,
        neighbors=_neighbor_set(solver))
    runner.run(body)
    return solver.bounds, solver.gamma, solver.K, solver.alpha
