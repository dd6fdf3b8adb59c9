"""OnlineRunner end-to-end on a toy 1D diffusion app.

The toy mirrors the structure the real drivers hand the runner —
checkpoint shards, in-memory snapshots, halo p2p plus an allreduce per
step — but with state small enough to assert exact recovery semantics:
respawn must reproduce the unfaulted run *bit-identically* with disk
loads on nobody but the replacement, and shrink must redistribute the
domain and converge to the same physics (modulo reduction order).
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.resilience.chaos import kill_plan
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.online import OnlineRunner
from repro.resilience.supervisor import (
    KIND_KILL,
    RecoveryPolicy,
    ResilientJob,
)
from repro.runtime import (
    FaultInjector,
    OnlineRecoveryError,
    ParallelJob,
    Transport,
)

NCELLS = 12
NSTEPS = 6


def _run_toy(nprocs, *, ckpt_dir=None, kill=None, spares=0,
             shrink=False, policy=None, resilient=False,
             nsteps=NSTEPS, coupled=True, lag=0.0):
    """Periodic 1D diffusion, block-distributed over a ring.

    Each step exchanges one boundary cell with each neighbour, applies
    the 3-point stencil, and (``coupled``) couples everyone through an
    allreduce.  The global update is decomposition-independent, so a
    shrunken rerun lands on the same field (up to reduction order) and
    a respawned one is bitwise identical.  ``lag`` seconds delay the
    planned kill.  Returns (assembled field, transport, ckpt,
    injector).
    """
    tr = Transport(nprocs)
    injector = FaultInjector(kill_plan(
        kill_rank=kill[0], kill_step=kill[1],
        nprocs=nprocs)) if kill else None
    ckpt = Checkpointer(ckpt_dir) if ckpt_dir is not None else None
    start = np.sin(np.arange(NCELLS, dtype=np.float64))

    def prog(comm):
        per = NCELLS // comm.size
        x = start[comm.rank * per:(comm.rank + 1) * per].copy()

        def save(label):
            ckpt.save(label, comm.rank, x=x)

        def load(label):
            x[...] = ckpt.load(label, comm.rank)["x"]

        def shrink_hook(comm_, record):
            nonlocal x
            new_per = NCELLS // comm.size
            label = record.rollback_step
            if label > 0:
                old_per = NCELLS // nprocs
                g = np.empty(NCELLS)
                for old in range(nprocs):
                    g[old * old_per:(old + 1) * old_per] = \
                        ckpt.load(label, old)["x"]
            else:
                g = start.copy()
            x = g[comm.rank * new_per:(comm.rank + 1) * new_per].copy()
            runner.neighbors = _neighbor_set()

        def _neighbor_set():
            return {comm._global((comm.rank + d) % comm.size)
                    for d in (-1, 1)} - {comm._global(comm.rank)}

        def body(step):
            if injector is not None:
                if (comm.rank, step) == kill:
                    time.sleep(lag)
                injector.tick(comm.rank, step)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(float(x[-1]), dest=right, tag=11)
            comm.send(float(x[0]), dest=left, tag=12)
            from_left = comm.recv(source=left, tag=11)
            from_right = comm.recv(source=right, tag=12)
            ext = np.concatenate(([from_left], x, [from_right]))
            x[...] = ext[1:-1] + 0.25 * (ext[:-2] - 2.0 * ext[1:-1]
                                         + ext[2:])
            if coupled:
                total = comm.allreduce(float(x.sum()))
                x[...] += 1e-4 * total / NCELLS

        runner = OnlineRunner(
            comm, nsteps=nsteps, checkpoint=ckpt, checkpoint_every=2,
            save=save if ckpt is not None else None,
            load=load if ckpt is not None else None,
            snapshot=lambda: x.copy(),
            restore=lambda snap: np.copyto(x, snap),
            policy=policy,
            on_shrink=shrink_hook if shrink else None,
            neighbors=_neighbor_set())
        runner.run(body)
        return comm.rank * (NCELLS // comm.size), x.copy()

    job = ParallelJob(nprocs, transport=tr, injector=injector,
                      spares=spares)
    if resilient:
        results = ResilientJob(job, policy=policy,
                               checkpoint=ckpt).run(prog)
    else:
        results = job.run(prog)
    out = np.full(NCELLS, np.nan)
    for res in results:
        if res is None:        # rank lost to a kill, shrunk around
            continue
        lo, arr = res
        out[lo:lo + arr.size] = arr
    assert not np.isnan(out).any()
    return out, tr, ckpt, injector


class TestRespawn:
    def test_bit_identical_with_localized_rollback(self, tmp_path):
        clean, *_ = _run_toy(3)
        got, tr, ckpt, injector = _run_toy(
            3, ckpt_dir=tmp_path, kill=(1, 3), spares=1)
        assert injector.kill_fired
        assert np.array_equal(got, clean)          # bitwise
        (rec,) = tr.repairs
        assert rec.mode == "respawn"
        assert rec.dead == (1,)
        assert rec.replacements == (1,)
        # only the replacement touched the checkpoint directory
        assert ckpt.load_counts == {1: 1}

    def test_respawned_job_frees_its_transport(self, tmp_path):
        """The spawn hook works during the run and is dropped after it:
        with the cyclic collector off, the transport of a job that
        respawned a killed rank goes with its last reference."""
        clean, *_ = _run_toy(3)
        gc.disable()
        try:
            got, tr, _, injector = _run_toy(
                3, ckpt_dir=tmp_path, kill=(1, 3), spares=1)
            assert injector.kill_fired
            assert np.array_equal(got, clean)
            assert tr.repairs[0].mode == "respawn"
            alive = weakref.ref(tr)
            del tr, injector
            assert alive() is None
        finally:
            gc.enable()

    def test_rolled_back_is_replacement_plus_neighbors(self, tmp_path):
        _, tr, ckpt, _ = _run_toy(
            4, ckpt_dir=tmp_path, kill=(1, 3), spares=1)
        (rec,) = tr.repairs
        # ring neighbours of the dead rank 1 are 0 and 2; rank 3 keeps
        # its state untouched
        assert rec.rolled_back == (0, 1, 2)
        assert 3 in rec.survivors
        assert set(ckpt.load_counts) == {1}

    def test_survivors_resume_one_step_without_collectives(self,
                                                           tmp_path):
        # No allreduce, and rank 1 lags into its kill: only the runner's
        # step barrier stops rank 3 (no ring neighbour of rank 1) from
        # finishing the kill step before ranks 0 and 2 fail in it, which
        # would split the survivors across two resume steps.
        clean, *_ = _run_toy(4, coupled=False)
        got, tr, _, _ = _run_toy(4, ckpt_dir=tmp_path, kill=(1, 3),
                                 spares=1, coupled=False, lag=0.2)
        assert np.array_equal(got, clean)          # bitwise
        (rec,) = tr.repairs
        assert rec.resume_step == 3

    def test_policy_records_online_respawn_event(self, tmp_path):
        policy = RecoveryPolicy()
        _run_toy(3, ckpt_dir=tmp_path, kill=(1, 3), spares=1,
                 policy=policy)
        (ev,) = policy.events
        assert ev.kind == KIND_KILL
        assert ev.action == "online-respawn"
        assert ev.rank == 1
        assert ev.step == 3


class TestShrink:
    def test_redistributes_and_matches_clean_physics(self, tmp_path):
        clean, *_ = _run_toy(3)
        got, tr, ckpt, _ = _run_toy(
            3, ckpt_dir=tmp_path, kill=(1, 3), spares=0, shrink=True)
        # reduction order differs on 2 ranks; physics must not
        np.testing.assert_allclose(got, clean, rtol=1e-12, atol=1e-13)
        (rec,) = tr.repairs
        assert rec.mode == "shrink"
        assert rec.dead == (1,)
        assert rec.replacements == ()

    def test_shrink_without_checkpoint_restarts_from_initial(self):
        clean, *_ = _run_toy(3)
        got, tr, _, _ = _run_toy(3, kill=(1, 3), spares=0, shrink=True)
        np.testing.assert_allclose(got, clean, rtol=1e-12, atol=1e-13)
        assert tr.repairs[-1].rollback_step == 0


class TestDegradation:
    def test_kill_without_spares_surfaces_root_cause(self, tmp_path):
        # OnlineRecoveryError ("no spares left and no shrink hook") is
        # an *innocent* symptom: the job reports the kill itself so the
        # restart supervisor classifies the fault correctly.
        with pytest.raises(RuntimeError, match="injected kill"):
            _run_toy(3, ckpt_dir=tmp_path, kill=(1, 3), spares=0)

    def test_online_recovery_error_is_innocent(self):
        # Sanity: the typed degradation error exists and is filtered
        # out of root-cause reporting, never raised bare to the caller.
        with pytest.raises(RuntimeError) as ei:
            _run_toy(3, kill=(1, 3), spares=0)
        assert not isinstance(ei.value.__cause__, OnlineRecoveryError)

    def test_resilient_job_degrades_to_full_restart(self, tmp_path):
        clean, *_ = _run_toy(3)
        policy = RecoveryPolicy(backoff_base=0.0, jitter=False)
        got, tr, ckpt, injector = _run_toy(
            3, ckpt_dir=tmp_path, kill=(1, 3), spares=0,
            policy=policy, resilient=True)
        assert injector.kill_fired
        assert np.array_equal(got, clean)          # bitwise
        ev = policy.events[0]
        assert ev.kind == KIND_KILL
        assert ev.action == "restart"
        assert ev.rank == 1
        # no online repair happened: the whole job reloaded instead,
        # so every rank shows a checkpoint load
        assert not tr.repairs
        assert set(ckpt.load_counts) == {0, 1, 2}
