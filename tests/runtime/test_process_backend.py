"""Process backend: real OS ranks behind the same Transport/Comm API.

Rank programs live at module level so the spawn pickler can ship them by
reference (pytest imports this module as ``tests.runtime.<name>`` and the
parent's ``sys.path`` travels with each worker).
"""

import multiprocessing
import multiprocessing.reduction
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APPS
from repro.machine.platforms import ES
from repro.obs.tracer import Tracer
from repro.resilience.checkpoint import Checkpointer
from repro.runtime import BackendError, ParallelJob, Transport
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.process_backend import (BLAS_THREAD_VARS, SHM_MIN_BYTES,
                                           ProcTransport)
from repro.runtime.virtual_time import VirtualClocks

_ROOT = Path(__file__).resolve().parents[2]

#: what no rank runs, only the parent or an offline tool: a rank pays for
#: every module it loads before its program can start
_OFFLINE_MODULES = (
    "repro.obs.profile", "repro.obs.replay", "repro.obs.export",
    "repro.obs.metrics", "repro.machine", "repro.perf", "repro.work",
    "repro.analysis", "repro.campaign", "repro.experiments", "repro.amr",
    "repro.resilience.checkpoint", "repro.resilience.health",
    "repro.resilience.supervisor", "repro.runtime.caf",
    "repro.runtime.virtual_time", "networkx")


def _offline_for(app: str) -> tuple[str, ...]:
    """What a rank of ``app`` must not load: the offline modules, the
    other apps, its own model profile and instrumentation, and scipy
    (GTC's Poisson solve calls ``scipy.linalg.solve_banded`` every
    step)."""
    return (_OFFLINE_MODULES
            + tuple(f"repro.apps.{a}" for a in APPS if a != app)
            + (f"repro.apps.{app}.profile",
               f"repro.apps.{app}.instrumentation")
            + (() if app == "gtc" else ("scipy",)))


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], cwd=_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)


def _shm_entries() -> set:
    return set(Path("/dev/shm").glob("repro*"))


def _primitive_ring(comm):
    """Exercise p2p + both collectives; return everything for comparison."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got = comm.sendrecv(np.full(4, float(comm.rank)),
                        dest=right, source=left)
    total = comm.allreduce(float(comm.rank) + 1.0)
    gathered = comm.allgather(comm.rank * 10)
    return (os.getpid(), float(got[0]), total, tuple(gathered))


def _big_exchange(comm):
    """Ship an array comfortably above the shared-memory threshold."""
    n = SHM_MIN_BYTES // 8 + 64          # float64 payload > SHM_MIN_BYTES
    peer = 1 - comm.rank
    got = comm.sendrecv(np.full(n, float(comm.rank + 1)),
                        dest=peer, source=peer)
    return float(got.sum())


class TestProcessRanks:
    def test_ranks_are_distinct_processes_with_thread_parity(self):
        out_p = ParallelJob(4, backend="process").run(_primitive_ring)
        out_t = ParallelJob(4).run(_primitive_ring)

        pids = [r[0] for r in out_p]
        assert len(set(pids)) == 4, "each rank must be its own OS process"
        assert os.getpid() not in pids
        # everything except the PID must agree bit-for-bit with threads
        assert [r[1:] for r in out_p] == [r[1:] for r in out_t]

    def test_shared_memory_payloads_keep_logical_accounting(self):
        tp_p, tp_t = Transport(2), Transport(2)
        out_p = ParallelJob(2, transport=tp_p,
                            backend="process").run(_big_exchange)
        out_t = ParallelJob(2, transport=tp_t).run(_big_exchange)
        assert out_p == out_t
        # zero-copy transport must not change what the app "sent"
        assert tp_p.message_count() == tp_t.message_count()
        assert tp_p.total_bytes() == tp_t.total_bytes()

    def test_shared_memory_labels_repeat_across_jobs(self):
        # A segment's epoch label is its name without the job's random
        # prefix, so two runs of one program label its buffers alike.
        def labels():
            tracer = Tracer(2)
            ParallelJob(2, tracer=tracer,
                        backend="process").run(_big_exchange)
            return [(e.rank, e.seq, e.args["op"], e.args["buf"])
                    for e in tracer.events() if e.name == "buf-epoch"]

        first = labels()
        assert {buf for *_, buf in first} == {"shm:r0s0", "shm:r1s0"}
        assert {op for _, _, op, _ in first} == {"publish", "read"}
        assert labels() == first


def _array_sum(comm, arr):
    return float(arr.sum())


def _blas_env(comm):
    return tuple(os.environ.get(v) for v in BLAS_THREAD_VARS)


class TestStartup:
    @pytest.mark.parametrize("app", APPS)
    def test_rank_imports_stay_lean(self, app):
        code = ("import sys\n"
                "import repro.runtime.process_backend\n"
                f"import repro.apps.{app}.parallel\n"
                f"print(*[m for m in {_offline_for(app)!r} "
                f"if m in sys.modules])\n")
        run = _fresh_python(code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == []

    def test_spawned_rank_loads_no_offline_module(self):
        from tests.runtime._rank_modules import repro_modules

        offline = _OFFLINE_MODULES + tuple(f"repro.apps.{a}" for a in APPS)
        out = ParallelJob(2, backend="process").run(repro_modules)
        assert len(out) == 2
        for mods in out:
            assert "repro.runtime.process_backend" in mods
            assert [m for m in mods if any(
                m == o or m.startswith(o + ".") for o in offline)] == []

    def test_spawn_pickles_never_carry_the_program(self, monkeypatch):
        # A Process pickle above the 64 KiB pipe buffer makes start()
        # wait until the child has imported its modules and read it.
        sizes = []
        dump = multiprocessing.reduction.dump

        def measured_dump(obj, file, protocol=None):
            start = file.tell()
            dump(obj, file, protocol)
            if isinstance(obj, BaseProcess):
                sizes.append(file.tell() - start)

        monkeypatch.setattr(multiprocessing.reduction, "dump",
                            measured_dump)
        big = np.arange(1 << 20, dtype=np.float64)        # 8 MiB
        out = ParallelJob(2, backend="process").run(_array_sum, big)
        assert out == [float(big.sum())] * 2
        assert len(sizes) == 2
        assert max(sizes) < 64 * 1024

    def test_ranks_get_one_blas_thread_per_core(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        usable = (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count())
        before = dict(os.environ)
        out = ParallelJob(2, backend="process").run(_blas_env)
        assert out == [(str(max(1, usable // 2)),) * 3] * 2
        assert dict(os.environ) == before

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        before = dict(os.environ)
        out = ParallelJob(2, backend="process").run(_blas_env)
        assert out == [("3", None, None)] * 2
        assert dict(os.environ) == before

        # Concurrent jobs (campaign pool threads) never see each other's
        # width, and none of them leaves one behind.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        before = dict(os.environ)
        sizes = (1, 2, 1)
        with ThreadPoolExecutor(len(sizes)) as pool:
            futures = [pool.submit(ParallelJob(n, backend="process").run,
                                   _blas_env) for n in sizes]
            outs = [f.result(timeout=120) for f in futures]
        for n, out in zip(sizes, outs):
            assert out == [(str(max(1, usable // n)),) * 3] * n
        assert dict(os.environ) == before


class TestTeardown:
    def test_failed_start_stops_started_ranks(self, monkeypatch):
        shm_before = _shm_entries()
        env_before = dict(os.environ)
        start = BaseProcess.start
        started = []

        def flaky_start(proc):
            if started:
                raise OSError("injected start failure")
            started.append(proc)
            start(proc)

        monkeypatch.setattr(BaseProcess, "start", flaky_start)
        with pytest.raises(OSError, match="injected start failure"):
            ParallelJob(2, backend="process").run(_primitive_ring)
        monkeypatch.undo()
        assert len(started) == 1, "rank 0 must have been running"
        assert multiprocessing.active_children() == []
        assert _shm_entries() <= shm_before
        assert dict(os.environ) == env_before

    def test_resource_tracker_stays_balanced(self):
        # Rank programs and halo payloads both ride shared memory; an
        # unbalanced register/unregister makes the tracker warn at exit.
        code = ("from repro.runtime import ParallelJob\n"
                "from tests.runtime.test_process_backend import "
                "_big_exchange\n"
                "print(ParallelJob(2, backend='process')"
                ".run(_big_exchange))\n")
        run = _fresh_python(code)
        assert run.returncode == 0, run.stderr
        assert "resource_tracker" not in run.stderr, run.stderr


class TestInboxPump:
    def test_stop_is_prompt_and_leaks_no_fd(self):
        # Every rank stops its pump at exit, and a killed rank stops it
        # before os._exit: a stop must not wait out an idle poll.
        ctx = multiprocessing.get_context("spawn")
        inboxes, parent_q = [ctx.Queue()], ctx.Queue()
        try:
            fds = len(os.listdir("/proc/self/fd"))
            for _ in range(3):
                tp = ProcTransport(0, 1, inboxes, parent_q,
                                   shm_prefix="repro-pump-test")
                tp.start_pump()
                pump = tp._pump_thread
                time.sleep(0.02)
                t0 = time.perf_counter()
                tp.stop_pump()
                assert time.perf_counter() - t0 < 0.02
                assert not pump.is_alive()
                tp.stop_pump()          # a second stop is a no-op
            assert len(os.listdir("/proc/self/fd")) <= fds
        finally:
            for q in (*inboxes, parent_q):
                q.close()


class TestBackendErrors:
    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="bogus"):
            ParallelJob(2, backend="bogus")

    def test_unpicklable_rank_fn_fails_fast(self):
        # preflight must catch this before any worker spawns
        with pytest.raises(BackendError, match="pickl"):
            ParallelJob(2, backend="process").run(lambda comm: comm.rank)


class TestSpawnPicklability:
    """Everything a worker config can carry must survive a round trip."""

    def test_fault_plan_and_injector(self):
        plan = FaultPlan(seed=7, drop=0.25, kill_rank=1, kill_step=3)
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan
        inj = pickle.loads(pickle.dumps(FaultInjector(plan)))
        assert inj.plan == plan

    def test_virtual_clocks(self):
        clocks = VirtualClocks(4)
        clocks.advance(2, 1.5)
        back = pickle.loads(pickle.dumps(clocks))
        assert back.nprocs == 4
        assert back.time(2) == clocks.time(2)

    def test_machine_spec(self):
        back = pickle.loads(pickle.dumps(ES))
        assert back.name == ES.name
        assert back.peak_gflops == ES.peak_gflops

    def test_checkpointer(self, tmp_path):
        ck = Checkpointer(tmp_path, keep=2)
        back = pickle.loads(pickle.dumps(ck))
        assert back.keep == 2
