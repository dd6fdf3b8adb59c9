"""Killing a *real* OS-process rank: detection, respawn, bit parity.

The injector test exercises the cooperative path (the worker announces
it is dying before ``os._exit``); the SIGKILL test exercises the hard
path — the process vanishes without a last word and the supervisor's
sentinel sweep must notice, poison the survivors, and respawn from the
checkpoint.  Both must land on the clean thread-backend answer exactly.
"""

import os
import signal
import tempfile

import numpy as np
import pytest

from repro.apps.lbmhd import orszag_tang
from repro.apps.lbmhd.parallel import run_parallel
from repro.resilience.chaos import run_kill_chaos
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.online import OnlineRunner
from repro.runtime import BackendError, ParallelJob, Transport, process_backend
from repro.runtime.faults import FaultInjector, FaultPlan
from tests.runtime._rank_modules import BOOT_MODULES, served_modules

NCELLS = 8  # per-rank state size for the ring program


class _SigkillRing:
    """Picklable rank program: checkpointed ring exchange that SIGKILLs
    one rank mid-run.  The flag file makes the kill one-shot, so the
    respawned replacement sails past the kill site."""

    def __init__(self, nsteps, ckdir, flag, kill_rank=None, kill_step=0):
        self.nsteps = nsteps
        self.checkpoint = Checkpointer(ckdir) if ckdir else None
        self.flag = flag
        self.kill_rank = kill_rank
        self.kill_step = kill_step

    def __call__(self, comm):
        x = np.sin(np.arange(NCELLS, dtype=np.float64) + comm.rank)
        ck = self.checkpoint

        def save(label):
            ck.save(label, comm.rank, x=x)

        def load(label):
            x[...] = ck.load(label, comm.rank)["x"]

        def body(step):
            if (self.kill_rank == comm.rank and step == self.kill_step
                    and not os.path.exists(self.flag)):
                with open(self.flag, "w") as fh:
                    fh.write(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = comm.sendrecv(float(x[-1]), dest=right, source=left)
            x[...] += 0.125 * (got - x)
            x[...] += 1e-3 * comm.allreduce(float(x.mean()))

        neighbors = {comm._global((comm.rank + d) % comm.size)
                     for d in (-1, 1)} - {comm._global(comm.rank)}
        runner = OnlineRunner(
            comm, nsteps=self.nsteps,
            checkpoint=ck, checkpoint_every=1 if ck else 0,
            save=save if ck else None, load=load if ck else None,
            snapshot=lambda: x.copy(),
            restore=lambda snap: np.copyto(x, snap),
            neighbors=neighbors)
        runner.run(body)
        return x.copy()


class _ServedRing(_SigkillRing):
    """The SIGKILL ring, also returning what the parent's code table
    served this rank."""

    def __call__(self, comm):
        return super().__call__(comm), served_modules(comm)


class TestInjectorKill:
    def test_lbmhd_injected_kill_respawns_and_matches_thread(self):
        nprocs, nsteps = 4, 5
        rho, u, B = orszag_tang(16, 16)
        clean = run_parallel(rho, u, B, nprocs=nprocs, nsteps=nsteps)

        inj = FaultInjector(FaultPlan(kill_rank=1, kill_step=3))
        tp = Transport(nprocs, timeout=10.0)
        with tempfile.TemporaryDirectory() as ck:
            faulted = run_parallel(
                rho, u, B, nprocs=nprocs, nsteps=nsteps, transport=tp,
                injector=inj, checkpoint=Checkpointer(ck),
                checkpoint_every=1, spares=1, backend="process")

        for a, b in zip(clean, faulted):
            assert np.array_equal(a, b)
        assert inj.kill_fired, "injector state must merge back from the worker"
        assert len(tp.repairs) == 1
        rec = tp.repairs[0]
        assert rec.mode == "respawn"
        assert rec.dead == (1,)


class TestSigkill:
    def test_sigkilled_rank_is_detected_and_respawned(self, tmp_path):
        nprocs, nsteps = 4, 5
        flag = str(tmp_path / "killed.flag")
        ckdir = str(tmp_path / "ck")

        ref = ParallelJob(nprocs).run(
            _SigkillRing(nsteps, None, flag))

        tp = Transport(nprocs, timeout=10.0)
        out = ParallelJob(nprocs, transport=tp, spares=1,
                          backend="process").run(
            _SigkillRing(nsteps, ckdir, flag, kill_rank=1, kill_step=3))

        assert os.path.exists(flag), "the kill must actually have fired"
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        assert len(tp.repairs) == 1
        rec = tp.repairs[0]
        assert rec.mode == "respawn"
        assert rec.dead == (1,)

    def test_replacement_starts_from_the_parents_code(self, tmp_path,
                                                      monkeypatch):
        # A fresh code cache: the first job fills it, the second job's
        # replacement must start from it like the initial ranks.
        monkeypatch.setattr(process_backend, "_CODE",
                            process_backend._CodeCache())
        flag = str(tmp_path / "killed.flag")
        first = ParallelJob(2, backend="process").run(
            _ServedRing(3, str(tmp_path / "ck0"), flag))
        tp = Transport(2, timeout=10.0)
        out = ParallelJob(2, transport=tp, spares=1, backend="process").run(
            _ServedRing(3, str(tmp_path / "ck1"), flag, kill_rank=1,
                        kill_step=2))
        assert os.path.exists(flag), "the kill must actually have fired"
        assert [rec.dead for rec in tp.repairs] == [(1,)]
        for (x0, _), (x1, _) in zip(first, out):
            assert np.array_equal(x0, x1)
        compiled = set(first[1][1])
        replacement = out[1][1]
        assert compiled <= set(replacement)
        assert {m for m, s in replacement.items() if s} == \
            compiled - BOOT_MODULES


class TestShrinkRejected:
    def test_shrink_chaos_refuses_process_backend(self):
        with pytest.raises(BackendError, match="shrink"):
            run_kill_chaos(1, 3, shrink=True, apps=("lbmhd",),
                           backend="process")
