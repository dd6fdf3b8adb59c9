"""Block-parallel LBMHD on the simulated SPMD runtime.

The 2D spatial grid is block distributed over a 2D processor grid (§3);
each step is a local BGK collision followed by a halo exchange and the
streaming update.  Two communication paths are implemented, mirroring the
paper's ports:

* **MPI path** — non-contiguous boundary data are packed into temporary
  buffers to reduce the number of send/receive messages (one message per
  neighbour carrying both f and g strips);
* **CAF path** — the distribution arrays are co-arrays and boundary
  exchange is performed with direct one-sided puts (no packing: separate,
  smaller messages for f and g), as in the X1 Co-Array Fortran port.

Both paths produce bit-identical fields to the serial solver, which the
integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...resilience.online import OnlineRunner
from ...runtime import (
    BackendError,
    BlockND,
    CoArray,
    Comm,
    FaultInjector,
    HaloGuard,
    ParallelJob,
    ProcessorGrid,
    RepairRecord,
    Transport,
)
from .collision import collide
from .equilibrium import f_equilibrium, g_equilibrium, moments
from .fused import FusedStepper
from .lattice import _CUBIC_NODES, D2Q9, Lattice, lagrange_weights

if TYPE_CHECKING:
    from ...resilience.checkpoint import Checkpointer
    from ...resilience.health import HealthConfig
    from ...resilience.supervisor import RecoveryPolicy

#: the 8 halo directions (dy, dx)
_DIRS: tuple[tuple[int, int], ...] = (
    (-1, 0), (1, 0), (0, -1), (0, 1),
    (-1, -1), (-1, 1), (1, -1), (1, 1))


def halo_width(lattice: Lattice) -> int:
    """Halo cells needed per side: 1 for exact streaming, 2 when the cubic
    interpolation stencil reaches two cells upwind."""
    return 1 if lattice.is_exact else 2


def _side_slices(side: int, h: int, n: int, *, halo: bool) -> slice:
    """Slice along one axis for a strip on ``side`` (-1 low, +1 high, 0 all).

    ``halo=False`` selects the interior strip adjacent to that side;
    ``halo=True`` selects the halo region on that side.  Interior cells
    live at ``[h, h+n)`` of an extended extent ``n + 2h``.
    """
    if side == 0:
        return slice(h, h + n)
    if side == -1:
        return slice(0, h) if halo else slice(h, 2 * h)
    return slice(h + n, h + n + h) if halo else slice(n, h + n)


def _region(dy: int, dx: int, h: int, ly: int, lx: int, *,
            halo: bool) -> tuple[slice, slice]:
    return (_side_slices(dy, h, ly, halo=halo),
            _side_slices(dx, h, lx, halo=halo))


def stream_extended(ext: np.ndarray, lattice: Lattice, h: int,
                    out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Streaming on a halo-extended array; returns the interior result.

    ``ext`` has shape (Q, ..., ly+2h, lx+2h) with valid halos.  Equivalent
    to global periodic streaming followed by cropping to this block.
    ``out`` (and, for interpolating lattices, ``scratch``) may be passed
    to reuse buffers across steps; results are identical either way.
    """
    q = ext.shape[0]
    ly, lx = ext.shape[-2] - 2 * h, ext.shape[-1] - 2 * h
    if out is None:
        out = np.empty(ext.shape[:-2] + (ly, lx), dtype=ext.dtype)

    def shifted(i: int, oy: int, ox: int) -> np.ndarray:
        return ext[i][..., h + oy:h + oy + ly, h + ox:h + ox + lx]

    for i in range(q):
        dx, dy = lattice.shifts[i]
        frac = lattice.fractions[i]
        if dx == 0 and dy == 0:
            out[i] = shifted(i, 0, 0)
        elif frac == 1.0:
            # out(x) = f(x - c): pull from the upwind offset.
            out[i] = shifted(i, -dy, -dx)
        else:
            weights = lagrange_weights(_CUBIC_NODES, -frac)
            if scratch is None:
                scratch = np.empty(ext.shape[1:-2] + (ly, lx),
                                   dtype=ext.dtype)
            out[i][...] = 0.0
            for node, w in zip(_CUBIC_NODES.astype(np.int64), weights):
                np.multiply(shifted(i, node * dy, node * dx), w,
                            out=scratch)
                out[i] += scratch
    return out


@dataclass
class RankResult:
    """Per-rank output of a parallel run."""

    bounds: tuple[tuple[int, int], tuple[int, int]]
    rho: np.ndarray
    u: np.ndarray
    B: np.ndarray
    mass: float
    energy: float


class _RankState:
    """One rank's extended distribution arrays and neighbour table."""

    def __init__(self, comm: Comm, decomp: BlockND, lattice: Lattice,
                 rho: np.ndarray, u: np.ndarray, B: np.ndarray,
                 tau: float, tau_m: float):
        self.comm = comm
        self.lattice = lattice
        self.tau, self.tau_m = tau, tau_m
        self.h = halo_width(lattice)
        self.bounds = decomp.bounds(comm.rank)
        (y0, y1), (x0, x1) = self.bounds
        self.ly, self.lx = y1 - y0, x1 - x0
        if self.ly < self.h or self.lx < self.h:
            raise ValueError(
                f"subdomain {self.ly}x{self.lx} smaller than halo {self.h}")
        loc = (slice(y0, y1), slice(x0, x1))
        rho_l = rho[loc]
        u_l = u[(slice(None),) + loc]
        B_l = B[(slice(None),) + loc]
        self.f = self._extend(f_equilibrium(rho_l, u_l, B_l, lattice))
        self.g = self._extend(g_equilibrium(u_l, B_l, lattice))
        grid = decomp.grid
        coords = grid.coords(comm.rank)
        self.neighbors = {
            (dy, dx): grid.rank((coords[0] + dy, coords[1] + dx))
            for dy, dx in _DIRS}

    def _extend(self, interior: np.ndarray) -> np.ndarray:
        h = self.h
        ext = np.zeros(interior.shape[:-2]
                       + (self.ly + 2 * h, self.lx + 2 * h))
        ext[..., h:h + self.ly, h:h + self.lx] = interior
        return ext

    # -- views ------------------------------------------------------------
    @property
    def interior(self) -> tuple[slice, slice]:
        return (slice(self.h, self.h + self.ly),
                slice(self.h, self.h + self.lx))

    def strip(self, arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
        ys, xs = _region(dy, dx, self.h, self.ly, self.lx, halo=False)
        return arr[..., ys, xs]

    def halo_region(self, dy: int, dx: int) -> tuple[slice, slice]:
        return _region(dy, dx, self.h, self.ly, self.lx, halo=True)


def _pack_strip(strip: np.ndarray, pool) -> np.ndarray:
    """Pack a boundary strip into a pooled (or fresh) send buffer."""
    if pool is None:
        return strip.copy()
    buf = pool.take(strip.shape, strip.dtype)
    np.copyto(buf, strip)
    return buf


def _exchange_mpi(state: _RankState) -> None:
    """Packed-buffer halo exchange: one message per neighbour (§3.1).

    With the zero-copy transport, packing buffers come from the shared
    :class:`~repro.runtime.buffers.BufferPool` and are recycled by the
    receiver once unpacked — steady-state stepping allocates nothing on
    the halo path.  Logical traffic records are identical either way.
    """
    comm = state.comm
    tp = comm.transport
    pool = tp.pool if tp.zero_copy else None
    for k, (dy, dx) in enumerate(_DIRS):
        nb = state.neighbors[(dy, dx)]
        if nb == comm.rank:
            # Periodic wrap onto self (grid dimension 1 along this axis):
            # halo on side d holds this rank's own strip from side -d.
            ys, xs = state.halo_region(dy, dx)
            state.f[..., ys, xs] = state.strip(state.f, -dy, -dx)
            state.g[..., ys, xs] = state.strip(state.g, -dy, -dx)
        else:
            payload = (_pack_strip(state.strip(state.f, dy, dx), pool),
                       _pack_strip(state.strip(state.g, dy, dx), pool))
            comm.send(payload, dest=nb, tag=k)
    for k, (dy, dx) in enumerate(_DIRS):
        nb = state.neighbors[(dy, dx)]
        if nb == comm.rank:
            continue
        opp = _DIRS.index((-dy, -dx))
        f_strip, g_strip = comm.recv(source=nb, tag=opp)
        ys, xs = state.halo_region(dy, dx)
        state.f[..., ys, xs] = f_strip
        state.g[..., ys, xs] = g_strip
        if pool is not None:
            pool.give(f_strip)
            pool.give(g_strip)


class _CafImages:
    """Co-array images of the extended f and g arrays."""

    def __init__(self, state: _RankState):
        self.ca_f = CoArray(state.comm, state.f.shape, name="f")
        self.ca_g = CoArray(state.comm, state.g.shape, name="g")
        self.ca_f.local[...] = state.f
        self.ca_g.local[...] = state.g
        state.f = self.ca_f.local
        state.g = self.ca_g.local
        state.comm.barrier()


def _exchange_caf(state: _RankState, images: _CafImages) -> None:
    """One-sided halo exchange: direct puts, no packing (§3.1 CAF port)."""
    images.ca_f.sync()
    for dy, dx in _DIRS:
        nb = state.neighbors[(dy, dx)]
        ys, xs = _region(-dy, -dx, state.h, state.ly, state.lx, halo=True)
        key = (Ellipsis, ys, xs)
        if nb == state.comm.rank:
            state.f[key] = state.strip(state.f, dy, dx)
            state.g[key] = state.strip(state.g, dy, dx)
        else:
            images.ca_f.put(nb, key, state.strip(state.f, dy, dx))
            images.ca_g.put(nb, key, state.strip(state.g, dy, dx))
    images.ca_f.sync()


def _lbmhd_rank_body(comm: Comm, rho, u, B, lattice, tau, tau_m,
                     use_caf, fused, nsteps, decomp, nprocs,
                     injector, checkpoint, checkpoint_every,
                     health, policy, on_shrink) -> RankResult:
    """One rank's full LBMHD program (shared by both backends)."""
    stepper = FusedStepper(lattice, tau, tau_m) if fused else None
    monitor = None
    if health is not None:
        from ...resilience.health import HealthMonitor
        monitor = HealthMonitor(comm, health)
    tracer = comm.transport.tracer

    def build(dc: BlockND):
        st = _RankState(comm, dc, lattice, rho, u, B, tau, tau_m)
        im = _CafImages(st) if use_caf else None
        gds: list[HaloGuard] = []
        if comm.transport.sanitize:
            # One guard per distribution: poison the halo ring at
            # step start, prove the exchange rewrote all 8 strips,
            # and fail loudly if streaming runs before the exchange.
            for label, arr in (("lbmhd.f", st.f), ("lbmhd.g", st.g)):
                guard = HaloGuard(label)
                for dy, dx in _DIRS:
                    ys, xs = _region(dy, dx, st.h, st.ly, st.lx,
                                     halo=True)
                    guard.watch(arr, (Ellipsis, ys, xs))
                gds.append(guard)
        fo = go = None
        if fused:
            fo = np.empty(st.f.shape[:-2] + (st.ly, st.lx))
            go = np.empty(st.g.shape[:-2] + (st.ly, st.lx))
        return st, im, gds, fo, go

    state, images, guards, f_out, g_out = build(decomp)

    def save(label: int) -> None:
        checkpoint.save(label, comm.rank, f=state.f, g=state.g)

    def load(label: int) -> None:
        data = checkpoint.load(label, comm.rank)
        state.f[...] = data["f"]
        state.g[...] = data["g"]

    def snapshot():
        return state.f.copy(), state.g.copy()

    def restore(snap) -> None:
        state.f[...] = snap[0]
        state.g[...] = snap[1]

    def shrink_hook(comm_: Comm, record: RepairRecord) -> None:
        # Remap the domain over the shrunken grid: re-decompose for
        # the new size, rebuild this rank's block, and reload the
        # rollback state from the *old* decomposition's shards.
        nonlocal state, images, guards, f_out, g_out
        new_decomp = BlockND(
            ProcessorGrid.for_nprocs(comm.size, 2), rho.shape)
        state, images, guards, f_out, g_out = build(new_decomp)
        label = record.rollback_step
        if label > 0 and checkpoint is not None:
            h = halo_width(lattice)
            f_g = np.zeros((lattice.q,) + rho.shape)
            g_g = np.zeros((lattice.q, 2) + rho.shape)
            for old in range(nprocs):
                (y0, y1), (x0, x1) = decomp.bounds(old)
                data = checkpoint.load(label, old)
                cut = (Ellipsis, slice(h, h + (y1 - y0)),
                       slice(h, h + (x1 - x0)))
                f_g[..., y0:y1, x0:x1] = data["f"][cut]
                g_g[..., y0:y1, x0:x1] = data["g"][cut]
            (y0, y1), (x0, x1) = state.bounds
            inter2 = (Ellipsis,) + state.interior
            state.f[inter2] = f_g[..., y0:y1, x0:x1]
            state.g[inter2] = g_g[..., y0:y1, x0:x1]
        runner.neighbors = {
            comm._global(r) for r in state.neighbors.values()
            if r != comm.rank}
        if callable(on_shrink):
            on_shrink(comm, record)

    def body(step_index: int) -> None:
        inter = state.interior
        if injector is not None:
            injector.tick(comm.rank, step_index)
            # Corrupt only the owned interior: halo copies are
            # rewritten by the next exchange, so a flip there is
            # benign by construction (masked, not detected).
            injector.sdc(comm.rank, step_index,
                         {"f": state.f[(Ellipsis,) + inter],
                          "g": state.g[(Ellipsis,) + inter]})
        if tracer.enabled:
            tracer.instant(comm.rank, "step", "phase",
                           {"step": step_index})
        for guard in guards:
            guard.begin_step()
        with comm.phase("collision"):
            if stepper is not None:
                stepper.collide(state.f[(Ellipsis,) + inter],
                                state.g[(Ellipsis,) + inter])
            else:
                f_i, g_i = collide(state.f[(Ellipsis,) + inter],
                                   state.g[(Ellipsis,) + inter],
                                   lattice, tau, tau_m)
                state.f[(Ellipsis,) + inter] = f_i
                state.g[(Ellipsis,) + inter] = g_i
        with comm.phase("halo"):
            if use_caf:
                _exchange_caf(state, images)
            else:
                _exchange_mpi(state)
        for guard in guards:
            guard.mark_exchanged()
        with comm.phase("stream"):
            for guard in guards:
                guard.require_exchanged("stream")
            if stepper is not None:
                f_s = stepper.stream_halo(state.f, state.h, f_out)
                g_s = stepper.stream_halo(state.g, state.h, g_out)
            else:
                f_s = stream_extended(state.f, lattice, state.h)
                g_s = stream_extended(state.g, lattice, state.h)
            state.f[(Ellipsis,) + inter] = f_s
            state.g[(Ellipsis,) + inter] = g_s
        if monitor is not None and monitor.due(step_index):
            # Uniform condition across ranks, so every rank joins the
            # reductions; the label keeps these watchdog reductions out
            # of the step phases' attribution in `repro report`.
            with comm.phase("diagnostics"):
                monitor.guard_finite(step_index, "lbmhd.finite",
                                     state.f, state.g)
                rho_l, u_l, _ = moments(
                    state.f[(Ellipsis,) + inter],
                    state.g[(Ellipsis,) + inter], lattice)
                mass = comm.allreduce(float(rho_l.sum()))
                monitor.check_conserved(step_index, "lbmhd.mass",
                                        mass,
                                        default_threshold=1e-8)
                mom = comm.allreduce(
                    (rho_l * u_l).sum(axis=(1, 2)))
                for ax, label in enumerate(("x", "y")):
                    monitor.check_conserved(
                        step_index, f"lbmhd.momentum.{label}",
                        float(mom[ax]), default_threshold=1e-8,
                        scale=mass)

    runner = OnlineRunner(
        comm, nsteps=nsteps, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        save=save if checkpoint is not None else None,
        load=load if checkpoint is not None else None,
        snapshot=snapshot, restore=restore, policy=policy,
        on_shrink=shrink_hook if on_shrink else None,
        neighbors={comm._global(r) for r in state.neighbors.values()
                   if r != comm.rank})
    runner.run(body)
    inter = state.interior
    rho_l, u_l, B_l = moments(state.f[(Ellipsis,) + inter],
                              state.g[(Ellipsis,) + inter], lattice)
    mass = comm.allreduce(float(rho_l.sum()))
    energy = comm.allreduce(float(
        0.5 * (rho_l * (u_l ** 2).sum(axis=0)).sum()
        + 0.5 * (B_l ** 2).sum()))
    return RankResult(state.bounds, rho_l, u_l, B_l, mass, energy)


class _LbmhdRankMain:
    """The SPMD rank program as a picklable callable.

    One instance is shared by every rank (thread backend) or pickled
    into every rank process (process backend); ``__call__`` touches
    only per-rank state derived from ``comm``.  The ``injector`` /
    ``checkpoint`` / ``health`` / ``policy`` attributes are the merge
    contract with :mod:`repro.runtime.process_backend`: worker-local
    ledgers accumulated on their copies are folded back into the
    caller's objects at job end.
    """

    def __init__(self, rho, u, B, *, lattice, tau, tau_m, use_caf,
                 fused, nsteps, decomp, nprocs, injector, checkpoint,
                 checkpoint_every, health, policy, on_shrink):
        self.rho, self.u, self.B = rho, u, B
        self.lattice = lattice
        self.tau, self.tau_m = tau, tau_m
        self.use_caf = use_caf
        self.fused = fused
        self.nsteps = nsteps
        self.decomp = decomp
        self.nprocs = nprocs
        self.injector = injector
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.health = health
        self.policy = policy
        self.on_shrink = on_shrink

    def __call__(self, comm: Comm) -> RankResult:
        rho, u, B = self.rho, self.u, self.B
        lattice = self.lattice
        tau, tau_m = self.tau, self.tau_m
        use_caf, fused = self.use_caf, self.fused
        nsteps = self.nsteps
        decomp, nprocs = self.decomp, self.nprocs
        injector, checkpoint = self.injector, self.checkpoint
        checkpoint_every = self.checkpoint_every
        health, policy = self.health, self.policy
        on_shrink = self.on_shrink
        return _lbmhd_rank_body(
            comm, rho, u, B, lattice, tau, tau_m, use_caf, fused,
            nsteps, decomp, nprocs, injector, checkpoint,
            checkpoint_every, health, policy, on_shrink)


def run_parallel(rho: np.ndarray, u: np.ndarray, B: np.ndarray, *,
                 nprocs: int, nsteps: int, lattice: Lattice = D2Q9,
                 tau: float = 0.8, tau_m: float = 0.8,
                 use_caf: bool = False, fused: bool = False,
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
    """Run LBMHD on ``nprocs`` simulated ranks; returns global (rho, u, B).

    The processor grid is the near-square factorization of ``nprocs``
    (the paper restricts to squared integers to maximize performance; any
    count works here).  ``fused=True`` runs the collision and streaming
    phases through :class:`~repro.apps.lbmhd.fused.FusedStepper`
    (in-place relaxation, reused stream buffers) — bitwise identical to
    the naive kernels, just without their per-step temporaries.

    Resilience: ``injector`` enables fault injection (message faults are
    survived by the transport's retry path; a planned rank crash aborts
    the job and triggers a supervised restart, up to ``max_restarts``
    times; planned SDC flips land in the interior — owned — cells of
    the ``f``/``g`` distributions at step boundaries, never in halo
    copies the next exchange would silently repair).  With ``checkpoint`` set and
    ``checkpoint_every > 0``, every rank saves its extended
    distributions each ``checkpoint_every`` steps, and a (re)started job
    resumes from the last *verified* (CRC-clean) checkpoint —
    bit-identical to an uninterrupted run.  ``health`` enables the
    collision invariants as corruption detectors: total mass and net
    momentum conservation plus a NaN/Inf guard, checked after each step
    and *before* the checkpoint save so corrupt state is never
    checkpointed at cadence 1.  ``policy`` customizes (and records) the
    restart/rollback decisions.

    ``sanitize`` (or ``REPRO_SANITIZE=1``) arms the buffer-ownership
    sanitizer (:mod:`repro.runtime.sanitize`): borrowed halo buffers
    raise on mutation with their borrow site, pool misuse raises, and a
    per-rank :class:`~repro.runtime.HaloGuard` NaN-poisons the halo ring
    each step and proves the exchange rewrote it before streaming reads
    it.  Results are bit-identical with the sanitizer on or off.

    Online recovery: ``spares > 0`` holds that many spare ranks in
    reserve — a rank killed mid-run (the fault plan's ``kill_rank``) is
    respawned in place, catches up by log replay, and the run completes
    bit-identically without a whole-job restart.  ``on_shrink`` enables
    the shrink fallback once spares run out: the survivors renumber,
    the domain is re-decomposed over the smaller grid, and everyone
    rolls back to the last checkpoint (pass a callable to observe the
    remap: called as ``on_shrink(comm, record)`` after the rebuild).
    The CAF path does not support online recovery (one-sided images
    are pinned to the original rank set).
    """
    if (spares > 0 or on_shrink) and use_caf:
        raise ValueError("online recovery is not supported on the CAF "
                         "path (co-array images pin the rank set)")
    if use_caf and backend == "process":
        raise BackendError(
            "the CAF one-sided path requires in-process shared images; "
            "run use_caf jobs with backend='thread'")
    grid = ProcessorGrid.for_nprocs(nprocs, 2)
    decomp = BlockND(grid, rho.shape)
    rank_main = _LbmhdRankMain(
        rho, u, B, lattice=lattice, tau=tau, tau_m=tau_m,
        use_caf=use_caf, fused=fused, nsteps=nsteps, decomp=decomp,
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

    rho_out = np.empty_like(rho)
    u_out = np.empty_like(u)
    B_out = np.empty_like(B)
    for res in results:
        if res is None:       # rank lost to a kill, shrunk around
            continue
        (y0, y1), (x0, x1) = res.bounds
        rho_out[y0:y1, x0:x1] = res.rho
        u_out[:, y0:y1, x0:x1] = res.u
        B_out[:, y0:y1, x0:x1] = res.B
    return rho_out, u_out, B_out
