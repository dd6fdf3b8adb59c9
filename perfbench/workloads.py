"""The seeded workloads.

Each is a closed loop: one client runs one job at a time with two
ranks.  A workload makes its inputs from the seed in :meth:`setup`,
runs one job through the program's public entry points in :meth:`job`,
checks what it can right away in :meth:`check`, and computes the
reference its outputs must equal after the timed loop in
:meth:`reference` (so the reference run never inflates the measured
process's peak memory).

Each workload's ``why`` (copied into ``BENCHMARK.json``) ends with the
layers it should move and those that should stay flat on it; later
changes cite these predictions by workload and metric name.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from .harness import digest

RANKS = 2

#: recv/barrier timeout handed to every job's transport: a lost peer
#: surfaces as an error well inside the job deadline
RECV_TIMEOUT = 30.0


@dataclass
class JobResult:
    """One job's checked output and the counters it is compared on."""

    digest: str
    counts: dict[str, Any]
    body_s: float | None          # slowest rank's program, seconds
    steps: int
    transport: Any = None         # kept for the traced run only
    stages: dict[str, float] = field(default_factory=dict)


def traffic_counts(tp) -> dict[str, Any]:
    """Logical traffic of one job from the transport's public records."""
    logical = [m for m in tp.messages if not m.resend]
    kinds: dict[str, int] = {}
    for rec in tp.collectives:
        kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
    return {
        "messages": len(logical),
        "bytes": sum(m.nbytes for m in logical),
        "resends": tp.resend_count(),
        "collectives": dict(sorted(kinds.items())),
    }


def _perturbed_orszag_tang(n: int, seed: int):
    """Orszag–Tang vortex with a seeded 1% density perturbation."""
    from repro.apps.lbmhd import orszag_tang

    rho, u, B = orszag_tang(n, n)
    rng = np.random.default_rng(seed)
    rho = rho * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=rho.shape))
    return rho, u, B


class Workload:
    name = ""
    why = ""
    backend = "thread"
    #: whether the traced run attaches the program's tracer
    uses_tracer = True
    deadline_s = 60.0

    def __init__(self) -> None:
        self.transport = None

    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self, seed: int, work: Path) -> list[float]:
        """Make inputs; return any set-up times measured in the process."""
        self.seed = seed
        self.work = work
        return []

    def new_transport(self, tracer=None):
        from repro.runtime import Transport

        tp = Transport(RANKS, timeout=RECV_TIMEOUT)
        if tracer is not None:
            tp.tracer = tracer
        elif tp.tracer.enabled:
            raise RuntimeError("timed job has a live tracer attached")
        self.transport = tp
        return tp

    def job(self, tracer=None) -> JobResult:
        raise NotImplementedError

    def check(self, res: JobResult) -> str | None:
        """Checks that need no reference; returns a failure reason."""
        return None

    def reference(self) -> JobResult | None:
        return None

    def abort(self) -> None:
        """Make a job that missed its deadline unwind."""
        import multiprocessing

        if self.transport is not None:
            self.transport.poison("benchmark job deadline")
        for proc in multiprocessing.active_children():
            if proc.name.startswith("repro-rank"):
                proc.terminate()

    def flops(self) -> tuple[float, float]:
        """Modeled (flops, words) of one job per rank."""
        return 0.0, 0.0


class LbmhdProcess(Workload):
    name = "lbmhd-process"
    why = ("Fused OCT9 LBMHD 256^2 on process ranks: most kernel work, halos"
           " on shm, 12 barriers/step, spawn. Moves apps, comm, p2p, "
           "buffers, spawn, shm; flat reliability, checkpoint, health, "
           "analysis.")
    backend = "process"
    grid = 256
    steps = 16

    def params(self):
        return {"app": "lbmhd", "lattice": "OCT9", "grid": [self.grid] * 2,
                "steps": self.steps, "fused": True, "tau": 0.8,
                "tau_m": 0.9, "init": "orszag-tang + 1% seeded density"}

    def setup(self, seed, work):
        self.inputs = _perturbed_orszag_tang(self.grid, seed)
        return super().setup(seed, work)

    def _run(self, backend: str, tracer=None) -> JobResult:
        from repro.apps.lbmhd import OCT9
        from repro.apps.lbmhd.parallel import run_parallel

        tp = self.new_transport(tracer)
        out = run_parallel(*self.inputs, nprocs=RANKS, nsteps=self.steps,
                           lattice=OCT9, tau=0.8, tau_m=0.9, fused=True,
                           transport=tp, backend=backend)
        return JobResult(digest(*out), traffic_counts(tp),
                         max(tp.body_seconds.values()), self.steps, tp)

    def job(self, tracer=None):
        return self._run(self.backend, tracer)

    def reference(self):
        return self._run("thread")

    def flops(self):
        from repro.apps.lbmhd.profile import LBMHDConfig, build_profile

        prof = build_profile(LBMHDConfig(self.grid, RANKS))
        return (prof.reported_flops * self.steps,
                prof.total_words * self.steps)


class CactusResilient(Workload):
    name = "cactus-resilient"
    why = ("Cactus 24^3, threads, chaos wire faults, checkpoint/2 steps, "
           "health/step, spares=1. Moves apps, p2p, reliability, buffers, "
           "checkpoint, health; flat comm, process_backend, analysis.")
    grid = 24
    steps = 8
    checkpoint_every = 2
    deadline_s = 30.0

    def params(self):
        return {"app": "cactus", "grid": [self.grid] * 3,
                "steps": self.steps, "integrator": "icn",
                "faults": {"drop": 0.05, "duplicate": 0.02,
                           "corrupt": 0.02, "delay": 0.02,
                           "delay_seconds": 0.001},
                "checkpoint_every": self.checkpoint_every,
                "health_every": 1, "spares": 1,
                "init": "gauge wave, seeded amplitude in [0.03, 0.07)"}

    def setup(self, seed, work):
        from repro.apps.cactus import gauge_wave

        super().setup(seed, work)
        rng = np.random.default_rng(seed)
        self.dx = 1.0 / self.grid
        self.inputs = gauge_wave((self.grid,) * 3, self.dx,
                                 amplitude=float(rng.uniform(0.03, 0.07)))
        self.jobs = 0
        return []

    def _run(self, faulted: bool, tracer=None) -> JobResult:
        from repro.apps.cactus.parallel import run_parallel
        from repro.resilience.checkpoint import Checkpointer
        from repro.resilience.health import HealthConfig
        from repro.runtime import FaultInjector, FaultPlan

        tp = self.new_transport(tracer)
        injector = None
        if faulted:
            # The `repro chaos` wire-fault mix, with no crash or kill.
            injector = FaultInjector(FaultPlan(
                seed=self.seed, drop=0.05, duplicate=0.02, corrupt=0.02,
                delay=0.02, delay_seconds=0.001, backoff_base=0.0005))
        self.jobs += 1
        ckdir = self.work / f"ckpt{self.jobs}"
        try:
            out = run_parallel(
                *self.inputs, nprocs=RANKS, nsteps=self.steps,
                spacing=self.dx, dt=0.2 * self.dx, transport=tp,
                injector=injector, checkpoint=Checkpointer(ckdir),
                checkpoint_every=self.checkpoint_every,
                health=HealthConfig(check_every=1), spares=1)
        finally:
            shutil.rmtree(ckdir, ignore_errors=True)
        counts = traffic_counts(tp)
        faults = injector.counts() if injector is not None else {}
        counts["faults"] = dict(sorted(faults.items()))
        counts["undelivered"] = tp.undelivered()
        return JobResult(digest(*out), counts,
                         max(tp.body_seconds.values()), self.steps, tp)

    def job(self, tracer=None):
        return self._run(True, tracer)

    def check(self, res):
        f = res.counts["faults"]
        if res.counts["resends"] <= 0:
            return "no resends under the chaos fault mix"
        if f.get("crash") or f.get("kill"):
            return "a rank crash or kill fired"
        if f.get("corrupt-discard", 0) != f.get("corrupt", 0):
            return (f"{f.get('corrupt-discard', 0)} corrupt discards for "
                    f"{f.get('corrupt', 0)} corruptions")
        # A duplicate of a channel's last message is never read again,
        # so it stays in the mailbox instead of being discarded.
        if (f.get("duplicate-discard", 0) + res.counts["undelivered"]
                != f.get("duplicate", 0)):
            return (f"{f.get('duplicate-discard', 0)} duplicate discards "
                    f"(+{res.counts['undelivered']} undelivered) for "
                    f"{f.get('duplicate', 0)} duplicates")
        return None

    def reference(self):
        return self._run(False)

    def flops(self):
        from repro.apps.cactus.profile import CactusConfig, build_profile
        from repro.runtime import ProcessorGrid

        dims = ProcessorGrid.for_nprocs(RANKS, 3).dims
        block = tuple(self.grid // d for d in dims)
        prof = build_profile(CactusConfig(block, RANKS))
        return (prof.reported_flops * self.steps,
                prof.total_words * self.steps)


class TraceAnalyze(Workload):
    name = "trace-analyze"
    uses_tracer = False
    why = ("One analyzer pass (report, races, deadlocks, commcheck) on a "
           "10k-event LBMHD trace; 4 parses today. Moves analysis, "
           "obs.profile, tracer (setup); flat apps, comm, transport, "
           "process_backend.")
    deadline_s = 60.0
    #: recordings of the input trace in set-up (setup_s is their median)
    recordings = 5
    grid = 32
    steps = 100

    def params(self):
        return {"app": "trace-analyze", "trace": {
                    "app": "lbmhd", "backend": "thread", "grid":
                    [self.grid] * 2, "steps": self.steps, "format":
                    "chrome trace.json"},
                "recordings": self.recordings,
                "passes": ["obs.profile.build_report",
                           "analysis.racecheck.check_trace_races",
                           "analysis.deadlock.check_trace_deadlocks",
                           "analysis.tracecheck.check_trace"]}

    def setup(self, seed, work):
        super().setup(seed, work)
        self.path = work / "input-trace.json"
        runner = Path(__file__).resolve().parent / "run.py"
        times = []
        for _ in range(self.recordings):
            # A child process records, so this process's peak memory
            # belongs to the analyzer alone.
            proc = subprocess.run(
                [sys.executable, str(runner), "--record-trace",
                 str(self.path), "--seed", str(seed)],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"trace recording failed: {proc.stderr.strip()}")
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(rec["record_s"])
        self.recorded = rec
        return times

    def job(self, tracer=None) -> JobResult:
        from repro.analysis import deadlock, racecheck, tracecheck
        from repro.obs import profile

        path = str(self.path)
        stages = {}
        t = perf_counter()
        doc = profile.build_report(path, nprocs=RANKS)
        profile.validate_report(doc)
        stages["report"] = perf_counter() - t
        t = perf_counter()
        races = racecheck.check_trace_races(path)
        stages["races"] = perf_counter() - t
        t = perf_counter()
        deadlocks = deadlock.check_trace_deadlocks(path)
        stages["deadlocks"] = perf_counter() - t
        t = perf_counter()
        comm = tracecheck.check_trace(path)
        stages["commcheck"] = perf_counter() - t
        matching = doc["comm_matching"]
        counts = {"findings": len(races) + len(deadlocks) + len(comm),
                  "p2p_edges": matching["p2p_edges"],
                  "collective_rounds": matching["collective_rounds"],
                  "unmatched": (matching["unmatched_sends"]
                                + matching["unmatched_recvs"]),
                  "events": self.recorded["events"]}
        return JobResult(digest(np.array([counts["findings"]])), counts,
                         None, len(stages), None, stages)

    def check(self, res):
        c = res.counts
        if c["findings"]:
            return f"{c['findings']} analyzer findings on a clean trace"
        if c["unmatched"]:
            return f"{c['unmatched']} unmatched p2p spans"
        if c["p2p_edges"] != self.recorded["sends"]:
            return (f"{c['p2p_edges']} p2p edges for "
                    f"{self.recorded['sends']} recorded sends")
        if c["collective_rounds"] != self.recorded["rounds"]:
            return (f"{c['collective_rounds']} collective rounds for "
                    f"{self.recorded['rounds']} recorded")
        return None


def record_trace(path: Path, seed: int) -> dict[str, Any]:
    """Record the analyzer workload's input trace (child process side)."""
    from repro.apps.lbmhd import OCT9
    from repro.apps.lbmhd.parallel import run_parallel
    from repro.obs.export import write_chrome_trace
    from repro.obs.profile import COLLECTIVE_SPANS as COLL
    from repro.obs.tracer import Tracer
    from repro.runtime import Transport

    wl = TraceAnalyze()
    inputs = _perturbed_orszag_tang(wl.grid, seed)
    t0 = perf_counter()
    tracer = Tracer(RANKS)
    tp = Transport(RANKS, timeout=RECV_TIMEOUT)
    tp.tracer = tracer
    run_parallel(*inputs, nprocs=RANKS, nsteps=wl.steps, lattice=OCT9,
                 tau=0.8, tau_m=0.9, fused=True, transport=tp)
    write_chrome_trace(path, tracer, process_name="perfbench lbmhd")
    record_s = perf_counter() - t0
    spans = [ev for ev in tracer.events() if ev.ph == "X"]
    per_rank: dict[str, list[int]] = {}
    for ev in spans:
        if ev.name in COLL:
            per_rank.setdefault(ev.name, [0] * RANKS)[ev.rank] += 1
    if any(len(set(c)) != 1 for c in per_rank.values()):
        raise RuntimeError(f"uneven collective participation: {per_rank}")
    return {"record_s": record_s, "events": len(tracer),
            "sends": sum(1 for ev in spans if ev.name == "send"),
            "rounds": sum(c[0] for c in per_rank.values())}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LbmhdProcess, CactusResilient, TraceAnalyze)}
